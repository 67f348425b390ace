// Package pow simulates the Proof-of-Work election that opens every epoch
// of the Elastico-style sharded blockchain (stage 1, committee formation).
//
// Each participating node repeatedly hashes until it finds a nonce below
// the target; the first solvers win committee seats. Solving time per node
// is exponential — the defining property of PoW — with a mean set by the
// difficulty. The paper's evaluation fixes the expected solving latency at
// 600 seconds; the formation latency of a committee is the time until its
// last seat is filled plus the overlay-configuration time (package
// overlay), which is what makes formation dominate the two-phase latency
// in Fig. 2.
package pow

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mvcom/internal/randx"
)

// Errors returned by the package.
var (
	ErrNoNodes   = errors.New("pow: no nodes")
	ErrBadSeats  = errors.New("pow: seats must be >= 1")
	ErrNotEnough = errors.New("pow: fewer solvers than seats")
)

// Election simulates one PoW election round over a set of nodes.
type Election struct {
	// MeanSolve is the expected puzzle-solving time per node. The paper
	// sets 600 s. Default 600 s.
	MeanSolve time.Duration
	// HashRateSpread is the lognormal sigma of per-node hash rates
	// (heterogeneous miners). Default 0.3.
	HashRateSpread float64
}

func (e Election) withDefaults() Election {
	if e.MeanSolve <= 0 {
		e.MeanSolve = 600 * time.Second
	}
	if e.HashRateSpread <= 0 {
		e.HashRateSpread = 0.3
	}
	return e
}

// Solver records one node's puzzle solution time.
type Solver struct {
	Node    int
	SolveAt time.Duration
}

// Run simulates the election: every node draws an exponential solving time
// scaled by its hash-rate factor; the result is sorted by solve time.
func (e Election) Run(rng *randx.RNG, nodes int) ([]Solver, error) {
	if nodes <= 0 {
		return nil, ErrNoNodes
	}
	e = e.withDefaults()
	out := make([]Solver, nodes)
	for i := range out {
		rate := rng.LogNormalMeanSpread(1.0, e.HashRateSpread)
		t := rng.Exponential(e.MeanSolve.Seconds() / rate)
		out[i] = Solver{Node: i, SolveAt: time.Duration(t * float64(time.Second))}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SolveAt != out[j].SolveAt {
			return out[i].SolveAt < out[j].SolveAt
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

// Committee is a formed committee: the member nodes and the time at which
// the last seat was filled (the PoW part of formation latency).
type Committee struct {
	ID      int
	Members []int
	// FormedAt is when the final seat was won.
	FormedAt time.Duration
}

// FormCommittees assigns the first committees*seats solvers to committees
// in solve order (Elastico assigns identities from the PoW output bits;
// assigning in solve order preserves the latency semantics — a committee is
// usable once all its seats are filled). It returns ErrNotEnough when the
// solver list is too short.
func FormCommittees(solvers []Solver, committees, seats int) ([]Committee, error) {
	if committees <= 0 || seats <= 0 {
		return nil, ErrBadSeats
	}
	need := committees * seats
	if len(solvers) < need {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNotEnough, need, len(solvers))
	}
	out := make([]Committee, committees)
	for c := range out {
		out[c].ID = c
		out[c].Members = make([]int, 0, seats)
	}
	// Round-robin over committees so all committees fill at similar times,
	// with the final committee seat deciding FormedAt.
	for i := 0; i < need; i++ {
		c := i % committees
		out[c].Members = append(out[c].Members, solvers[i].Node)
		if solvers[i].SolveAt > out[c].FormedAt {
			out[c].FormedAt = solvers[i].SolveAt
		}
	}
	return out, nil
}
