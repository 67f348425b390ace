// Package baseline implements the comparison algorithms of the MVCom
// evaluation (Section VI-B): Simulated Annealing (SA), Dynamic Programming
// (DP), and the Whale Optimization Algorithm (WOA), plus a value-density
// Greedy heuristic and an exact BruteForce solver used to validate the
// others on small instances.
//
// All solvers implement core.Solver and operate on the same Instance the
// SE algorithm consumes: selections are restricted to shards that arrived
// before the deadline and must satisfy the capacity Ĉ; Nmin is enforced by
// a shared repair step that pads a selection with the smallest remaining
// shards.
package baseline

import (
	"errors"
	"fmt"
	"sort"

	"mvcom/internal/core"
)

// Errors returned by the baseline solvers.
var (
	// ErrTooLarge is returned by BruteForce above its enumeration limit.
	ErrTooLarge = errors.New("baseline: instance too large for brute force")
)

// prepared is the shared preprocessing of every baseline: validation plus
// the arrived-candidate view of the instance.
type prepared struct {
	in    *core.Instance
	cands []int // instance indices of arrived shards
}

func prepare(in *core.Instance) (prepared, error) {
	if err := in.Validate(); err != nil {
		return prepared{}, err
	}
	cands := in.Arrived()
	if len(cands) == 0 {
		return prepared{}, core.ErrNoCandidates
	}
	return prepared{in: in, cands: cands}, nil
}

// value returns the utility contribution of candidate position p.
func (pr prepared) value(p int) float64 { return pr.in.Value(pr.cands[p]) }

// size returns s_i of candidate position p.
func (pr prepared) size(p int) int { return pr.in.Sizes[pr.cands[p]] }

// k returns the number of candidates.
func (pr prepared) k() int { return len(pr.cands) }

// load sums the sizes of the selected candidate positions.
func (pr prepared) load(sel []bool) int {
	total := 0
	for p, on := range sel {
		if on {
			total += pr.size(p)
		}
	}
	return total
}

// utility sums the values of the selected candidate positions.
func (pr prepared) utility(sel []bool) float64 {
	var u float64
	for p, on := range sel {
		if on {
			u += pr.value(p)
		}
	}
	return u
}

// count counts selected positions.
func (pr prepared) count(sel []bool) int {
	n := 0
	for _, on := range sel {
		if on {
			n++
		}
	}
	return n
}

// solution converts a candidate-position selection to an instance-space
// core.Solution.
func (pr prepared) solution(sel []bool, iterations int) core.Solution {
	full := make([]bool, pr.in.NumShards())
	for p, on := range sel {
		if on {
			full[pr.cands[p]] = true
		}
	}
	sol := core.NewSolution(pr.in, full)
	sol.Iterations = iterations
	return sol
}

// repairNmin pads sel with the smallest unselected candidates until the
// Nmin constraint holds, respecting capacity. It reports whether the
// selection now satisfies both constraints.
func (pr prepared) repairNmin(sel []bool) bool {
	needed := pr.in.Nmin - pr.count(sel)
	if needed <= 0 {
		return pr.load(sel) <= pr.in.Capacity
	}
	type cand struct{ pos, size int }
	var free []cand
	for p, on := range sel {
		if !on {
			free = append(free, cand{pos: p, size: pr.size(p)})
		}
	}
	sort.Slice(free, func(i, j int) bool {
		if free[i].size != free[j].size {
			return free[i].size < free[j].size
		}
		return free[i].pos < free[j].pos
	})
	load := pr.load(sel)
	for _, c := range free {
		if needed == 0 {
			break
		}
		if load+c.size > pr.in.Capacity {
			continue
		}
		sel[c.pos] = true
		load += c.size
		needed--
	}
	return needed == 0 && load <= pr.in.Capacity
}

// ensureNmin makes sel satisfy both constraints, first by padding
// (repairNmin), then — when padding cannot reach Nmin because high-value
// picks already fill the block — by rebuilding from the Nmin smallest
// shards and refilling the remaining capacity by value density. It reports
// whether a feasible selection was achieved (false only when even the
// Nmin smallest shards exceed the capacity).
func (pr prepared) ensureNmin(sel []bool) bool {
	if pr.repairNmin(sel) {
		return true
	}
	type cand struct{ pos, size int }
	order := make([]cand, pr.k())
	for p := range order {
		order[p] = cand{pos: p, size: pr.size(p)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].size != order[j].size {
			return order[i].size < order[j].size
		}
		return order[i].pos < order[j].pos
	})
	for p := range sel {
		sel[p] = false
	}
	load := 0
	for i := 0; i < pr.in.Nmin; i++ {
		sel[order[i].pos] = true
		load += order[i].size
	}
	if load > pr.in.Capacity {
		return false
	}
	// Refill the slack by value density, best first.
	rest := append([]cand(nil), order[pr.in.Nmin:]...)
	sort.Slice(rest, func(i, j int) bool {
		di := pr.value(rest[i].pos) / float64(maxInt(rest[i].size, 1))
		dj := pr.value(rest[j].pos) / float64(maxInt(rest[j].size, 1))
		if di != dj {
			return di > dj
		}
		return rest[i].pos < rest[j].pos
	})
	for _, c := range rest {
		if pr.value(c.pos) <= 0 {
			break
		}
		if load+c.size > pr.in.Capacity {
			continue
		}
		sel[c.pos] = true
		load += c.size
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// finish wraps the common "no feasible selection found" error.
func infeasible(name string, in *core.Instance) error {
	return fmt.Errorf("%s: %w (Nmin=%d capacity=%d)", name, core.ErrInfeasible, in.Nmin, in.Capacity)
}
