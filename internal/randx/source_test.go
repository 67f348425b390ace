package randx

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws spans more than three laps of the 607-word register, so
// every word is read back after the feedback has rewritten it.
const sourceDraws = 2000

// matchesMathRand reports the first draw at which the jump-ahead seeded
// source leaves rand.NewSource(seed)'s stream, or -1.
func matchesMathRand(seed int64, draws int) int {
	var got source
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < draws; i++ {
		if got.Uint64() != want.Uint64() {
			return i
		}
	}
	return -1
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, seedZero,
		math.MinInt64, math.MaxInt64,
	}
	pick := rand.New(rand.NewSource(17))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		if at := matchesMathRand(seed, sourceDraws); at >= 0 {
			t.Fatalf("seed %d: stream leaves math/rand's at draw %d", seed, at)
		}
	}
}

// TestNewMatchesMathRandSamplers checks the RNG wrapper end to end: the
// samplers rand.Rand builds on the source see math/rand's stream.
func TestNewMatchesMathRandSamplers(t *testing.T) {
	got, want := New(42), rand.New(rand.NewSource(42))
	for i := 0; i < sourceDraws; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("Float64 draw %d: %v != %v", i, g, w)
		}
		if g, w := got.Intn(1000), want.Intn(1000); g != w {
			t.Fatalf("Intn draw %d: %d != %d", i, g, w)
		}
		if g, w := got.LogNormal(0, 1), math.Exp(want.NormFloat64()); g != w {
			t.Fatalf("LogNormal draw %d: %v != %v", i, g, w)
		}
	}
}

func FuzzSeedMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, seedZero, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if at := matchesMathRand(seed, sourceDraws); at >= 0 {
			t.Fatalf("seed %d: stream leaves math/rand's at draw %d", seed, at)
		}
	})
}

// BenchmarkSeed times one seeding of a 607-word register: the
// jump-ahead source against math/rand's serial Schrage steps.
func BenchmarkSeed(b *testing.B) {
	b.Run("randx", func(b *testing.B) {
		var s source
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
