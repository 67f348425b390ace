package epoch

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"mvcom/internal/randx"
)

// The member-committee stage models: a PoW election (stage 1), overlay
// gossip (stage 2) and a PBFT quorum model (stage 3). Their constants
// are the paper's evaluation settings — a 600 s expected PoW solving
// time and a 54.5 s expected consensus latency — and the model's own
// lognormal spreads. Every function draws from the RNG it is given, in
// a fixed order, so a seed fixes every latency the scheduler sees.

// solver records one node's puzzle solution time.
type solver struct {
	node    int
	solveAt time.Duration
}

// elect simulates one PoW election over nodes miners: each node's hash
// rate is lognormal with mean 1 and σ 0.3, and its solving time
// exponential with a 600 s mean over that rate. The solvers come back in
// solve order, ties by node.
func elect(rng *randx.RNG, nodes int) []solver {
	out := make([]solver, nodes)
	for i := range out {
		rate := rng.LogNormalMeanSpread(1.0, 0.3)
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
// ID. The caller supplies at least committees·seats solvers.
func formCommittees(solvers []solver, committees, seats int) []committee {
	out := make([]committee, committees)
	for c := range out {
		out[c].members = make([]int, 0, seats)
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

func newNetwork(rng *randx.RNG, nodes int) network {
	n := network{rng: rng, factors: make([]float64, nodes)}
	for i := range n.factors {
		n.factors[i] = rng.LogNormalMeanSpread(1.0, 0.25)
	}
	return n
}

// configureOverlay simulates Elastico's overlay configuration for one
// committee: members exchange membership lists in ⌈log₄ k⌉+1 gossip
// rounds (fan-out 4, plus one round for stragglers). Each round a random
// member sends to every other, and the round costs its slowest link.
func (n network) configureOverlay(members []int) time.Duration {
	rounds := int(math.Ceil(math.Log(float64(len(members)))/math.Log(4))) + 1
	var total time.Duration
	for r := 0; r < rounds; r++ {
		src := members[n.rng.Intn(len(members))]
		var worst time.Duration
		for _, m := range members {
			if m == src {
				continue
			}
			base := n.rng.LogNormalMeanSpread(0.1, 0.5)
			worst = max(worst, time.Duration(base*n.factors[src]*n.factors[m]*1e9))
		}
		total += worst
	}
	return total
}

// consensusLatency draws stage 3 for one committee: PBFT's pre-prepare,
// prepare and commit phases in turn. The faulty replicas stay silent, so
// a phase completes when the (2f+1)-th fastest of the n−f correct
// replicas' messages arrives; each message delay is lognormal with mean
// meanStep and σ 0.4. Validation keeps n ≥ 3f+1, so 2f+1 ≤ n−f.
func consensusLatency(rng *randx.RNG, replicas, faulty int, meanStep time.Duration) time.Duration {
	delays := make([]float64, replicas-faulty)
	var total time.Duration
	for phase := 0; phase < 3; phase++ {
		for i := range delays {
			delays[i] = rng.LogNormalMeanSpread(meanStep.Seconds(), 0.4)
		}
		sort.Float64s(delays)
		total += time.Duration(delays[2*faulty] * float64(time.Second))
	}
	return total
}

// calibrateMeanStep returns the per-message mean that makes the expected
// consensus latency of a committee of replicas with faulty silent members
// the paper's 54.5 s. Phase latencies are order statistics of lognormal
// draws and scale linearly with the step mean, so 400 pilot rounds at a
// 1 s step measure the scale factor.
func calibrateMeanStep(rng *randx.RNG, replicas, faulty int) time.Duration {
	var sum float64
	for i := 0; i < 400; i++ {
		sum += consensusLatency(rng, replicas, faulty, time.Second).Seconds()
	}
	perUnit := sum / 400 // seconds of consensus per second of step mean
	return time.Duration(54.5 / perUnit * float64(time.Second))
}
