package epoch

import (
	"cmp"
	"math"
	"slices"
	"time"

	"mvcom/internal/randx"
)

// The member-committee stage models: a PoW election (stage 1), overlay
// gossip (stage 2) and a PBFT quorum model (stage 3). Their constants
// are the paper's evaluation settings — a 600 s expected PoW solving
// time and a 54.5 s expected consensus latency — and the model's own
// lognormal spreads. Every function draws from the RNG it is given, in
// a fixed order, so a seed fixes every latency the scheduler sees. Each
// computes its lognormals' μ once per call, not once per draw, and the
// functions that take a dst slice build their result in its backing
// array, so the pipeline's epoch loop reuses one set of buffers.

// solver records one node's puzzle solution time.
type solver struct {
	node    int
	solveAt time.Duration
}

// elect simulates one PoW election over nodes miners: each node's hash
// rate is lognormal with mean 1 and σ 0.3, and its solving time
// exponential with a 600 s mean over that rate. The solvers come back in
// dst's backing array, in solve order, ties by node.
func elect(dst []solver, rng *randx.RNG, nodes int) []solver {
	const sigma = 0.3
	mu := randx.LogNormalMu(1.0, sigma)
	out := slices.Grow(dst[:0], nodes)[:nodes]
	for i := range out {
		rate := rng.LogNormal(mu, sigma)
		t := rng.Exponential(600 / rate)
		out[i] = solver{node: i, solveAt: time.Duration(t * float64(time.Second))}
	}
	slices.SortFunc(out, func(a, b solver) int {
		if c := cmp.Compare(a.solveAt, b.solveAt); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	return out
}

// committee is a formed committee: its member nodes and the time its
// last seat was won (the PoW part of formation latency). Its ID is its
// index in formCommittees' result.
type committee struct {
	members  []int
	formedAt time.Duration
}

// formCommittees deals the first committees·seats solvers round-robin in
// solve order (Elastico assigns identities from the PoW output bits;
// dealing in solve order keeps the latency semantics — a committee is
// usable once all its seats are filled). Committee c's last seat is
// solver (seats−1)·committees + c, so formedAt never decreases with the
// ID. The caller supplies at least committees·seats solvers. The
// committees, and their member lists, reuse dst's.
func formCommittees(dst []committee, solvers []solver, committees, seats int) []committee {
	out := slices.Grow(dst[:0], committees)[:committees]
	for c := range out {
		out[c] = committee{members: slices.Grow(out[c].members[:0], seats)}
	}
	for i, s := range solvers[:committees*seats] {
		c := &out[i%committees]
		c.members = append(c.members, s.node)
		c.formedAt = max(c.formedAt, s.solveAt)
	}
	return out
}

// network is stage 2's latency model. Each node has a location factor,
// lognormal with mean 1 and σ 0.25, drawn once so that slow nodes stay
// slow; a link's one-way latency is lognormal with a 100 ms mean and
// σ 0.5, scaled by both endpoints' factors.
type network struct {
	rng     *randx.RNG
	factors []float64
}

// newNetwork draws the factors of nodes nodes into dst's backing array.
func newNetwork(dst []float64, rng *randx.RNG, nodes int) network {
	const sigma = 0.25
	mu := randx.LogNormalMu(1.0, sigma)
	n := network{rng: rng, factors: slices.Grow(dst[:0], nodes)[:nodes]}
	for i := range n.factors {
		n.factors[i] = rng.LogNormal(mu, sigma)
	}
	return n
}

// configureOverlay simulates Elastico's overlay configuration for one
// committee: members exchange membership lists in ⌈log₄ k⌉+1 gossip
// rounds (fan-out 4, plus one round for stragglers). Each round a random
// member sends to every other, and the round costs its slowest link.
func (n network) configureOverlay(members []int) time.Duration {
	const sigma = 0.5
	mu := randx.LogNormalMu(0.1, sigma)
	rounds := int(math.Ceil(math.Log(float64(len(members)))/math.Log(4))) + 1
	var total time.Duration
	for r := 0; r < rounds; r++ {
		src := members[n.rng.Intn(len(members))]
		var worst time.Duration
		for _, m := range members {
			if m == src {
				continue
			}
			base := n.rng.LogNormal(mu, sigma)
			worst = max(worst, time.Duration(base*n.factors[src]*n.factors[m]*1e9))
		}
		total += worst
	}
	return total
}

// pbftSigma is the σ of a PBFT message delay's lognormal.
const pbftSigma = 0.4

// consensusLatency draws stage 3 for one committee: PBFT's pre-prepare,
// prepare and commit phases in turn. The faulty replicas stay silent, so
// a phase completes when the (2f+1)-th fastest of the n−f correct
// replicas' messages arrives; each message delay is lognormal with
// location mu and σ pbftSigma (randx.LogNormalMu gives the mu of a mean
// step). Validation keeps n ≥ 3f+1, so 2f+1 ≤ n−f.
//
// exp is monotone, so the (2f+1)-th smallest delay is the exponential
// of the (2f+1)-th smallest normal exponent: each phase keeps the 2f+1
// smallest exponents, ascending, in buf's backing array, and
// exponentiates one of them. The draws, and the result, are those of
// exponentiating and sorting every message delay. With buf's capacity
// at least 2f+1 the call allocates nothing.
func consensusLatency(buf []float64, rng *randx.RNG, replicas, faulty int, mu float64) time.Duration {
	quorum := 2*faulty + 1
	best := slices.Grow(buf[:0], quorum)[:quorum]
	var total time.Duration
	for phase := 0; phase < 3; phase++ {
		for i := 0; i < replicas-faulty; i++ {
			x := rng.Normal(mu, pbftSigma)
			// x enters at the first free slot, or, once best is full, in
			// place of the largest exponent kept, if it is smaller.
			j := min(i, quorum-1)
			if i >= quorum && x >= best[j] {
				continue
			}
			for ; j > 0 && best[j-1] > x; j-- {
				best[j] = best[j-1]
			}
			best[j] = x
		}
		total += time.Duration(math.Exp(best[quorum-1]) * float64(time.Second))
	}
	return total
}

// calibrateMeanStep returns the per-message mean that makes the expected
// consensus latency of a committee of replicas with faulty silent members
// the paper's 54.5 s. Phase latencies are order statistics of lognormal
// draws and scale linearly with the step mean, so 400 pilot rounds at a
// 1 s step measure the scale factor.
func calibrateMeanStep(rng *randx.RNG, replicas, faulty int) time.Duration {
	buf := make([]float64, 2*faulty+1)
	mu := randx.LogNormalMu(1, pbftSigma)
	var sum float64
	for i := 0; i < 400; i++ {
		sum += consensusLatency(buf, rng, replicas, faulty, mu).Seconds()
	}
	perUnit := sum / 400 // seconds of consensus per second of step mean
	return time.Duration(54.5 / perUnit * float64(time.Second))
}
