// Package randx provides deterministic, explicitly seeded random sampling
// utilities used across the MVCom simulator and the stochastic-exploration
// scheduler.
//
// All samplers are driven by an *RNG created from an explicit seed so that
// every experiment, test, and benchmark in this repository is reproducible
// bit-for-bit. Split derives decorrelated streams for concurrent users,
// and Buffered is the block-buffered stream the SE kernel's round loop
// draws from. The SE timer race needs no log-space sampler here: the
// kernel shifts its log rates by their maximum before exponentiating, then
// makes one weighted pick (internal/core).
package randx

import (
	"errors"
	"math"
	"math/rand"
)

// ErrEmpty is returned by samplers that require at least one candidate.
var ErrEmpty = errors.New("randx: empty input")

// RNG is a deterministic random number generator. It wraps math/rand.Rand
// with the distribution samplers the simulator needs.
//
// RNG is NOT safe for concurrent use: every sampler mutates the underlying
// source, and concurrent callers both race and destroy reproducibility.
// Code that fans work out across goroutines must give each goroutine its
// own generator derived with Split *before* the goroutines start. Split streams are decorrelated through SplitMix64 and remain
// deterministic per seed, which is how the parallel SE kernel keeps
// same-seed runs bit-identical regardless of how many OS threads advance
// its explorers.
type RNG struct {
	src *rand.Rand
	raw source
}

// New returns an RNG seeded with the given seed. Its stream equals
// rand.New(rand.NewSource(seed))'s; only the seeding is faster (source).
func New(seed int64) *RNG {
	r := &RNG{}
	r.raw.Seed(seed)
	r.src = rand.New(&r.raw)
	return r
}

// Split derives a new, independently seeded RNG from r. The derived stream
// is decorrelated from r by mixing a draw from r through SplitMix64.
func (r *RNG) Split() *RNG {
	dst := new(RNG)
	r.SplitInto(dst)
	return dst
}

// SplitInto reseeds dst in place with the stream Split would return at
// this point, consuming the same one draw from r. A caller that splits a
// stream off every epoch keeps one generator this way instead of
// allocating a fresh 4.9 KB register each time. dst may be a zero RNG.
func (r *RNG) SplitInto(dst *RNG) {
	seed := int64(splitMix64(r.src.Uint64()))
	if dst.src == nil {
		dst.src = rand.New(&dst.raw)
	}
	dst.src.Seed(seed)
}

// splitMix64 is the SplitMix64 finalizer; it decorrelates derived seeds.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// PairIntn returns two independent uniform samples in [0, a) and [0, b)
// derived from a single 64-bit draw: the high 32 bits are reduced onto
// [0, a) and the low 32 bits onto [0, b) with the Lemire multiply-shift.
// It exists for hot loops (the SE swap-proposal draw) where halving the
// source draws is measurable. The reduction skips Lemire's rejection step,
// so each outcome's probability deviates from uniform by at most 2⁻³² —
// far below statistical detectability for the bounds used here. Panics if
// either bound is outside [1, 2³¹], matching Intn's contract.
func (r *RNG) PairIntn(a, b int) (int, int) {
	if a <= 0 || b <= 0 || a > 1<<31 || b > 1<<31 {
		panic("randx: PairIntn bounds out of range")
	}
	u := r.src.Uint64()
	hi := int((uint64(uint32(u>>32)) * uint64(a)) >> 32)
	lo := int((uint64(uint32(u)) * uint64(b)) >> 32)
	return hi, lo
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Exponential returns a sample from an exponential distribution with the
// given mean. A non-positive mean returns 0.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.src.ExpFloat64() * mean
}

// Normal returns a sample from N(mu, sigma²).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.src.NormFloat64()
}

// LogNormal returns a sample X = exp(N(mu, sigma²)): the exponential of
// the Normal draw, so a caller that needs only an order statistic of
// several lognormal draws can select among Normal draws and exponentiate
// the one it keeps.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// LogNormalMu returns the location mu of the lognormal with the given
// arithmetic mean and the sigma of the underlying normal: exp(N(mu,
// sigma²)) has that mean. A caller drawing many samples of one such
// distribution computes it once and draws with LogNormal or Normal.
func LogNormalMu(mean, sigma float64) float64 {
	return math.Log(mean) - sigma*sigma/2
}

// LogNormalMeanSpread returns a lognormal sample parameterized by its
// arithmetic mean and the sigma of the underlying normal. This form is
// convenient for trace generation ("mean 1850 TXs per block with lognormal
// spread sigma").
func (r *RNG) LogNormalMeanSpread(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.LogNormal(LogNormalMu(mean, sigma), sigma)
}

// WeightedPick samples an index with probability proportional to the given
// non-negative weights. Returns ErrEmpty when the total weight is zero.
func (r *RNG) WeightedPick(weights []float64) (int, error) {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0, ErrEmpty
	}
	target := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target <= 0 {
			return i, nil
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, ErrEmpty
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It returns ErrEmpty when k > n or k < 0.
func (r *RNG) SampleWithoutReplacement(n, k int) ([]int, error) {
	if k < 0 || k > n {
		return nil, ErrEmpty
	}
	if k == 0 {
		return nil, nil
	}
	// Partial Fisher-Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.src.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k:k], nil
}

// bufferedWords is the refill block of a Buffered stream: large enough to
// amortize the per-word source dispatch over a whole SE transition round
// (one race uniform plus one proposal word per solution thread), small
// enough to stay in one cache line pair.
const bufferedWords = 64

// Buffered is a block-buffered hot-loop stream split off an RNG: at
// construction it derives an independent SplitMix64 state from one source
// draw (the same decorrelation Split uses) and thereafter refills its
// buffer with pure counter arithmetic — no interface dispatch, no calls
// into math/rand at all. The stream is a pure function of the parent
// RNG's state at construction, so determinism carries over unchanged.
//
// Like RNG, a Buffered is not safe for concurrent use. Because the
// stream is derived once rather than interleaved, draws through the
// Buffered never consume from the parent RNG, which lets the SE kernel
// batch its per-round draws while cold paths (initialization, splitting)
// keep using the parent without the two streams perturbing each other.
type Buffered struct {
	state uint64
	buf   [bufferedWords]uint64
	pos   int
}

// NewBuffered derives a block-buffered stream from src, consuming one
// word of src (exactly like Split).
func NewBuffered(src *RNG) *Buffered {
	return &Buffered{state: splitMix64(src.Uint64()), pos: bufferedWords}
}

// Uint64 returns the next buffered word, refilling in a block when the
// buffer drains. The refill is SplitMix64 in counter mode: the golden-
// ratio Weyl sequence through the finalizer, which passes BigCrush and
// costs ~1ns per word.
func (b *Buffered) Uint64() uint64 {
	if b.pos == bufferedWords {
		s := b.state
		for i := range b.buf {
			s += 0x9e3779b97f4a7c15
			x := s
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x = (x ^ (x >> 27)) * 0x94d049bb133111eb
			b.buf[i] = x ^ (x >> 31)
		}
		b.state = s
		b.pos = 0
	}
	u := b.buf[b.pos]
	b.pos++
	return u
}

// Float64 returns a uniform sample in [0, 1) built from the top 53 bits
// of one buffered word (branch-free, unlike math/rand's rejection loop).
func (b *Buffered) Float64() float64 {
	return float64(b.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n) from one buffered word via the
// Lemire multiply-shift (no rejection step; the bias is at most 2⁻³² per
// outcome, far below statistical detectability for the bounds used
// here). Panics if n is outside [1, 2³¹], matching Intn's contract.
func (b *Buffered) Intn(n int) int {
	if n <= 0 || n > 1<<31 {
		panic("randx: Intn bound out of range")
	}
	return int((uint64(uint32(b.Uint64()>>32)) * uint64(n)) >> 32)
}

// PairIntn is RNG.PairIntn served from one buffered word: two independent
// uniforms in [0, a) and [0, b) via the Lemire multiply-shift on the high
// and low 32 bits. Panics if either bound is outside [1, 2³¹].
func (b *Buffered) PairIntn(x, y int) (int, int) {
	if x <= 0 || y <= 0 || x > 1<<31 || y > 1<<31 {
		panic("randx: PairIntn bounds out of range")
	}
	u := b.Uint64()
	hi := int((uint64(uint32(u>>32)) * uint64(x)) >> 32)
	lo := int((uint64(uint32(u)) * uint64(y)) >> 32)
	return hi, lo
}

// Zipf returns a sampler of Zipf-distributed values in [0, n) with
// exponent s > 1 — the standard model for skewed account popularity.
// Invalid parameters return nil.
func (r *RNG) Zipf(s float64, n uint64) *rand.Zipf {
	if s <= 1 || n == 0 {
		return nil
	}
	return rand.NewZipf(r.src, s, 1, n-1)
}
