package randx

// source is math/rand's generator (rngSource: the additive lagged
// Fibonacci generator of Mitchell and Reeds, x_n = x_{n-607} + x_{n-273}
// over 64-bit words) with a faster Seed. Its output equals
// rand.NewSource(seed)'s draw for draw, so every sampler rand.Rand builds
// on it, and every stream, decision and figure in the repository, is
// unchanged.
//
// math/rand fills the 607-word register from the Lehmer sequence
// x_k = 48271^k·x_0 mod (2³¹−1): it discards x_1..x_20 and packs three
// terms per word, 1 841 serial Schrage steps with two divisions each
// (about 12 µs). Seed computes the same terms by jump-ahead instead:
// x_21, x_22 and x_23 from constant powers, then three independent
// chains that each advance by 48271³, multiplied in 64 bits and folded
// modulo 2³¹−1, which the CPU overlaps.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lehmerA is the multiplier of math/rand's seed sequence; seedZero
	// replaces a seed ≡ 0 mod 2³¹−1, as math/rand does.
	lehmerA  = 48271
	seedZero = 89482311
	// lehmerA3 advances a chain by three terms; lehmerA21 jumps from
	// x_0 to x_21, the first term math/rand keeps.
	lehmerA3  = lehmerA * lehmerA * lehmerA % int32max
	lehmerA7  = lehmerA * lehmerA * lehmerA * lehmerA * lehmerA * lehmerA * lehmerA % int32max
	lehmerA21 = lehmerA7 * lehmerA7 % int32max * lehmerA7 % int32max
)

// mulMod returns a·x mod 2³¹−1 for a, x < 2³¹. Since 2³¹ ≡ 1, folding
// the high bits onto the low ones twice leaves at most 2³¹.
func mulMod(a, x uint64) uint64 {
	p := a * x
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// Seed fills the register exactly as math/rand's rngSource.Seed does.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	a := mulMod(lehmerA21, uint64(seed))
	b := mulMod(lehmerA, a)
	c := mulMod(lehmerA, b)
	for i := range s.vec {
		s.vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
		a, b, c = mulMod(lehmerA3, a), mulMod(lehmerA3, b), mulMod(lehmerA3, c)
	}
}

// Int63 returns a non-negative 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next 64-bit word.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
