package core_test

// Regression tests for the degenerate hot-path states the fused round
// loop must survive.

import (
	"testing"

	"mvcom/internal/core"
	"mvcom/internal/obs"
)

// TestProposalStarvationObservable pins the starved-round counter: on an
// instance where the only active thread's every swap is capacity-
// infeasible, the run degenerates into a perpetual rearm loop that must
// now be visible as mvcom_se_proposals_starved.
func TestProposalStarvationObservable(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{1, 5},
		Latencies: []float64{1, 1},
		Alpha:     1.5,
		Capacity:  1, // only {0} is feasible; the 0↔1 swap never fits
		Nmin:      1,
	}
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	seObs := obs.NewSEObserver(reg)
	sol, _, err := core.NewSE(core.SEConfig{
		Seed: 3, MaxIters: 200, ConvergenceWindow: 200, Obs: seObs,
	}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Count != 1 || !sol.Selected[0] {
		t.Fatalf("solution %+v, want the lone feasible shard 0", sol.Selected)
	}
	if got := seObs.ProposalsStarved.Value(); got == 0 {
		t.Fatal("mvcom_se_proposals_starved stayed 0 through a perpetual rearm loop")
	}
}

// TestSingleThreadRace covers the T=1 degenerate race: a two-candidate
// instance has exactly one solution thread (n=1), so every round the
// race has a single armed competitor.
func TestSingleThreadRace(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{2, 3},
		Latencies: []float64{1, 1},
		Alpha:     1.5,
		Capacity:  3,
		Nmin:      1,
	}
	sol, _, err := core.NewSE(core.SEConfig{
		Seed: 5, MaxIters: 500, ConvergenceWindow: 500,
	}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Value ∝ α·s_i with equal latencies: shard 1 wins.
	if sol.Count != 1 || !sol.Selected[1] {
		t.Fatalf("solution %+v, want the higher-value shard 1", sol.Selected)
	}
}
