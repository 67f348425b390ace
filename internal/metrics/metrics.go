// Package metrics computes the evaluation metrics of the MVCom paper and
// provides the recorders the experiment harness uses to turn solver output
// into figure series: convergence curves resampled on a common iteration
// grid, the Valuable Degree of a schedule, and root-chain throughput/age
// accounting for the epoch pipeline.
package metrics

import (
	"errors"
	"sort"

	"mvcom/internal/core"
)

// ErrNoTrace is returned when an operation needs a non-empty trace.
var ErrNoTrace = errors.New("metrics: empty trace")

// Resample evaluates a best-so-far trace on an explicit iteration grid
// (step function, last value carried forward). Iterations before the first
// trace point take the first point's utility. The grid must be ascending.
func Resample(trace []core.TracePoint, grid []int) ([]float64, error) {
	if len(trace) == 0 {
		return nil, ErrNoTrace
	}
	if !sort.IntsAreSorted(grid) {
		return nil, errors.New("metrics: grid not ascending")
	}
	out := make([]float64, len(grid))
	ti := 0
	cur := trace[0].Utility
	for gi, g := range grid {
		for ti < len(trace) && trace[ti].Iteration <= g {
			cur = trace[ti].Utility
			ti++
		}
		out[gi] = cur
	}
	return out, nil
}

// Grid builds an evenly spaced iteration grid [0, maxIter] with the given
// number of points (at least 2).
func Grid(maxIter, points int) []int {
	if points < 2 {
		points = 2
	}
	if maxIter < 1 {
		maxIter = 1
	}
	out := make([]int, points)
	for i := range out {
		out[i] = i * maxIter / (points - 1)
	}
	return out
}

// ValuableDegree evaluates the paper's Section VI-E metric for a solution:
// Σ_i x_i · s_i / Π_i with a 1-second age floor.
func ValuableDegree(in *core.Instance, sol core.Solution) float64 {
	return sol.ValuableDegree(in, 0)
}

// EpochOutcome summarizes one epoch of the pipeline for throughput/age
// accounting.
type EpochOutcome struct {
	Epoch          int
	PermittedTxs   int     // Σ x_i s_i
	ArrivedTxs     int     // Σ s_i over shards that met the deadline
	CumulativeAge  float64 // Σ x_i (t_j − l_i), seconds
	DDL            float64 // t_j, seconds
	CommitteeCount int     // Σ x_i
	Utility        float64
}

// Outcome derives an EpochOutcome from an instance and a solution.
func Outcome(epoch int, in *core.Instance, sol core.Solution) EpochOutcome {
	out := EpochOutcome{
		Epoch:          epoch,
		DDL:            in.DDL,
		PermittedTxs:   sol.Load,
		CommitteeCount: sol.Count,
		Utility:        sol.Utility,
		ArrivedTxs:     in.TotalArrivedSize(),
	}
	for i, sel := range sol.Selected {
		if sel {
			out.CumulativeAge += in.Age(i)
		}
	}
	return out
}

// Aggregate sums a run of epoch outcomes.
type Aggregate struct {
	Epochs         int
	TotalTxs       int
	TotalAge       float64
	TotalUtility   float64
	MeanPermitRate float64 // mean PermittedTxs/ArrivedTxs over epochs
}

// Aggregate folds outcomes into run totals.
func AggregateOutcomes(outcomes []EpochOutcome) Aggregate {
	var agg Aggregate
	var rateSum float64
	rated := 0
	for _, o := range outcomes {
		agg.Epochs++
		agg.TotalTxs += o.PermittedTxs
		agg.TotalAge += o.CumulativeAge
		agg.TotalUtility += o.Utility
		if o.ArrivedTxs > 0 {
			rateSum += float64(o.PermittedTxs) / float64(o.ArrivedTxs)
			rated++
		}
	}
	if rated > 0 {
		agg.MeanPermitRate = rateSum / float64(rated)
	}
	return agg
}
