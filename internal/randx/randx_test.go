package randx

import (
	"math"
	"testing"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitDecorrelated(t *testing.T) {
	a := New(7).Split()
	b := New(7) // parent stream, one draw consumed by Split
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent: %d identical draws", same)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(600)
	}
	mean := sum / n
	if mean < 580 || mean > 620 {
		t.Fatalf("Exponential(600) empirical mean %.2f out of tolerance", mean)
	}
}

func TestExponentialNonPositiveMean(t *testing.T) {
	r := New(1)
	if got := r.Exponential(0); got != 0 {
		t.Fatalf("Exponential(0) = %v, want 0", got)
	}
	if got := r.Exponential(-5); got != 0 {
		t.Fatalf("Exponential(-5) = %v, want 0", got)
	}
}

// TestNormalMoments checks the normal under LogNormal: log X of
// X = LogNormal(10, 3) must have mean 10 and variance 9.
func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := math.Log(r.LogNormal(10, 3))
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Normal mean %.3f, want ~10", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("Normal variance %.3f, want ~9", variance)
	}
}

func TestLogNormalMeanSpread(t *testing.T) {
	r := New(6)
	const n = 400000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormalMeanSpread(1850, 0.6)
	}
	mean := sum / n
	if math.Abs(mean-1850) > 40 {
		t.Fatalf("LogNormalMeanSpread mean %.1f, want ~1850", mean)
	}
	if got := r.LogNormalMeanSpread(0, 1); got != 0 {
		t.Fatalf("LogNormalMeanSpread(0) = %v, want 0", got)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(5, 7)
		if v < 5 || v >= 7 {
			t.Fatalf("Uniform(5,7) produced %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(10)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) empirical %.4f", p)
	}
}

func TestWeightedPick(t *testing.T) {
	r := New(17)
	counts := make([]int, 3)
	const n = 90000
	for i := 0; i < n; i++ {
		k, err := r.WeightedPick([]float64{1, 0, 2})
		if err != nil {
			t.Fatal(err)
		}
		counts[k]++
	}
	if counts[1] != 0 {
		t.Fatal("zero-weight index selected")
	}
	if p := float64(counts[2]) / n; math.Abs(p-2.0/3) > 0.01 {
		t.Fatalf("index 2 empirical %.4f, want 0.667", p)
	}
	if _, err := r.WeightedPick([]float64{0, 0}); err != ErrEmpty {
		t.Fatal("all-zero weights should return ErrEmpty")
	}
	if _, err := r.WeightedPick(nil); err != ErrEmpty {
		t.Fatal("nil weights should return ErrEmpty")
	}
}

func TestWeightedPickNegativeWeightsIgnored(t *testing.T) {
	r := New(18)
	for i := 0; i < 100; i++ {
		k, err := r.WeightedPick([]float64{-5, 1, -2})
		if err != nil {
			t.Fatal(err)
		}
		if k != 1 {
			t.Fatalf("negative-weight index %d selected", k)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(19)
	got, err := r.SampleWithoutReplacement(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := make(map[int]bool)
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("out-of-range index %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	if _, err := r.SampleWithoutReplacement(3, 4); err != ErrEmpty {
		t.Fatal("k > n should return ErrEmpty")
	}
	if out, err := r.SampleWithoutReplacement(3, 0); err != nil || out != nil {
		t.Fatal("k == 0 should return nil, nil")
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	r := New(20)
	counts := make([]int, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		got, err := r.SampleWithoutReplacement(5, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			counts[v]++
		}
	}
	for i, c := range counts {
		p := float64(c) / float64(2*n)
		if math.Abs(p-0.2) > 0.01 {
			t.Fatalf("index %d inclusion %.4f, want 0.2", i, p)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(22)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(23)
	z := r.Zipf(1.5, 1000)
	if z == nil {
		t.Fatal("nil sampler for valid params")
	}
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v >= 1000 {
			t.Fatalf("out-of-range sample %d", v)
		}
		counts[v]++
	}
	// Rank 0 dominates: it must appear far more often than rank 100.
	if counts[0] < 10*counts[100]+1 {
		t.Fatalf("no Zipf skew: rank0=%d rank100=%d", counts[0], counts[100])
	}
	if r.Zipf(1.0, 10) != nil || r.Zipf(2, 0) != nil {
		t.Fatal("invalid params accepted")
	}
}

func TestPairIntnRangeAndUniformity(t *testing.T) {
	r := New(31)
	const a, b, n = 7, 13, 91000
	countA := make([]int, a)
	countB := make([]int, b)
	for i := 0; i < n; i++ {
		x, y := r.PairIntn(a, b)
		if x < 0 || x >= a || y < 0 || y >= b {
			t.Fatalf("out of range: (%d, %d)", x, y)
		}
		countA[x]++
		countB[y]++
	}
	for v, c := range countA {
		if want := float64(n) / a; math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("first coordinate %d count %d, want ~%.0f", v, c, want)
		}
	}
	for v, c := range countB {
		if want := float64(n) / b; math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("second coordinate %d count %d, want ~%.0f", v, c, want)
		}
	}
}

func TestPairIntnCoordinatesIndependent(t *testing.T) {
	// The two halves of one 64-bit draw must not be correlated: the joint
	// distribution over a 4x4 grid should be flat.
	r := New(32)
	const n = 64000
	var joint [4][4]int
	for i := 0; i < n; i++ {
		x, y := r.PairIntn(4, 4)
		joint[x][y]++
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			if want := float64(n) / 16; math.Abs(float64(joint[x][y])-want) > 0.07*want {
				t.Fatalf("joint[%d][%d] = %d, want ~%.0f", x, y, joint[x][y], want)
			}
		}
	}
}

func TestPairIntnPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][2]int{{0, 5}, {5, 0}, {-1, 5}, {5, -1}, {1 << 32, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for bounds %v", bounds)
				}
			}()
			New(1).PairIntn(bounds[0], bounds[1])
		}()
	}
}

func TestSplitStreamsDoNotOverlap(t *testing.T) {
	// Concurrent users must Split() rather than share an RNG; this pins the
	// property that makes the split sound: sibling streams (and the parent)
	// produce disjoint draw sequences, so per-explorer chains never reuse
	// randomness. With 64-bit outputs, any overlap in the first N draws
	// would be a SplitMix64 correlation bug, not a coincidence.
	root := New(7)
	var streams []*RNG
	for i := 0; i < 4; i++ {
		streams = append(streams, root.Split())
	}
	streams = append(streams, root)
	const n = 4096
	seen := make(map[uint64]int, len(streams)*n)
	for si, s := range streams {
		for i := 0; i < n; i++ {
			v := s.Uint64()
			if prev, dup := seen[v]; dup && prev != si {
				t.Fatalf("streams %d and %d share value %#x in first %d draws", prev, si, v, n)
			}
			seen[v] = si
		}
	}
}

func TestSplitStreamsStatisticallyIndependent(t *testing.T) {
	// Pearson correlation between sibling streams' uniforms must vanish.
	root := New(8)
	a, b := root.Split(), root.Split()
	const n = 20000
	var sa, sb, sab, saa, sbb float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sa += x
		sb += y
		sab += x * y
		saa += x * x
		sbb += y * y
	}
	cov := sab/n - (sa/n)*(sb/n)
	varA := saa/n - (sa/n)*(sa/n)
	varB := sbb/n - (sb/n)*(sb/n)
	if corr := cov / math.Sqrt(varA*varB); math.Abs(corr) > 0.03 {
		t.Fatalf("split streams correlated: r = %.4f", corr)
	}
}
