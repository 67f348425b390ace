package core_test

// Acceptance tests for the convergence diagnostics (internal/seobs)
// wired through the SE kernel. They live in the external test package so
// they can cross-check against internal/baseline (which imports core).

import (
	"math"
	"testing"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/obs"
	"mvcom/internal/seobs"
)

// smallDiagInstance builds a |I| = 12 instance on which the d_TV
// estimator enumerates the Gibbs target. Latencies are uniform, so every
// value is α·s_i (distinct, positive); the capacity admits every
// selection of cardinality ≤ |I|−1 but not the full set, which makes
// every within-thread swap proposal feasible (the retry loop never
// truncates, keeping the proposal distribution symmetric) while the
// brute-force optimum stays inside the threads' state space.
func smallDiagInstance() core.Instance {
	sizes := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	total := 0
	for _, s := range sizes {
		total += s
	}
	lat := make([]float64, len(sizes))
	for i := range lat {
		lat[i] = 1
	}
	return core.Instance{
		Sizes:     sizes,
		Latencies: lat,
		Alpha:     1.5,
		Capacity:  total - 10, // min size; full set infeasible, all |I|-1 subsets feasible
		Nmin:      1,
	}
}

// TestDiagEmpiricalDTVAgainstGibbsTarget is the tentpole acceptance
// check: on a small instance the sampled visit distribution must come
// within d_TV < 0.1 of the enumerated Gibbs target p* ∝ exp(β_eff·U_f)
// after a Theorem-1-scale iteration budget, and the target's mode must
// agree with the brute-force optimum.
func TestDiagEmpiricalDTVAgainstGibbsTarget(t *testing.T) {
	in := smallDiagInstance()
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	diag := seobs.New(seobs.Config{Registry: reg})
	cfg := core.SEConfig{
		Seed:              7,
		Gamma:             4,
		MaxIters:          30000,
		ConvergenceWindow: 30000, // sample the stationary regime, no early stop
		Diag:              diag,
	}
	se := core.NewSE(cfg)
	sol, _, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}

	snap := diag.Snapshot()
	if snap.DTV == nil || !snap.DTV.Enabled {
		t.Fatal("d_TV estimator not enabled on a 12-shard instance")
	}
	if snap.DTV.Samples == 0 {
		t.Fatal("d_TV estimator collected no dwell samples")
	}

	// Theorem 1 scale: the iteration budget must clear the theorem's
	// lower bound on the mixing time (the upper bound is astronomically
	// loose — exp(3/2·β·ΔU) — and only logged for context).
	var umin, umax float64 = math.Inf(1), math.Inf(-1)
	for i := range in.Sizes {
		v := in.Value(i)
		if v < umin {
			umin = v
		}
		if v > umax {
			umax = v
		}
	}
	mb, err := core.MixingTimeBounds(in.NumShards(), snap.BetaEff, 0, umax, umin, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Theorem 1 bounds (log): lower %.2f upper %.2f; budget %d rounds x %d explorers",
		mb.LogLower, mb.LogUpper, cfg.MaxIters, cfg.Gamma)
	if float64(cfg.MaxIters) < mb.Lower {
		t.Fatalf("iteration budget %d below the Theorem 1 lower bound %.1f", cfg.MaxIters, mb.Lower)
	}

	t.Logf("d_TV estimate %.4f over %d states, %d samples (best %.1f after %d rounds)",
		snap.DTV.Estimate, snap.DTV.States, snap.DTV.Samples, sol.Utility, snap.Rounds)
	for _, c := range snap.DTV.PerCardinality {
		t.Logf("  n=%2d weight %.4f samples %7d tv %.4f", c.N, c.Weight, c.Samples, c.TV)
	}
	if snap.DTV.Estimate >= 0.1 {
		t.Fatalf("d_TV estimate %.4f, want < 0.1", snap.DTV.Estimate)
	}

	// Cross-check the enumerated target against the brute-force optimum:
	// the Gibbs mode must be the exact optimum of the (trimmed) space.
	bf := baseline.BruteForce{}
	bsol, _, err := bf.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	var bfMask uint64
	for i, on := range bsol.Selected {
		if on {
			bfMask |= 1 << uint(i)
		}
	}
	if snap.DTV.ModeMask != bfMask {
		t.Fatalf("Gibbs mode mask %#x != brute-force optimum %#x", snap.DTV.ModeMask, bfMask)
	}
	if math.Abs(snap.DTV.ModeUtility-bsol.Utility) > 1e-9 {
		t.Fatalf("Gibbs mode utility %v != brute-force optimum %v", snap.DTV.ModeUtility, bsol.Utility)
	}

	// The headline estimators must be populated and exported.
	if snap.SwapAcceptRate <= 0 || snap.SwapAcceptRate > 1 {
		t.Fatalf("swap-acceptance rate %v out of (0,1]", snap.SwapAcceptRate)
	}
	if snap.ResetRate <= 0 {
		t.Fatalf("reset rate %v, want > 0", snap.ResetRate)
	}
	if snap.TimeToEpsRounds < 0 {
		t.Fatal("time-to-eps unset after a converged run")
	}
	if snap.UtilitySamples == 0 {
		t.Fatal("no winner-utility samples for the mixing proxy")
	}
	if snap.IntegratedAutocorrTime < 1 {
		t.Fatalf("integrated autocorrelation time %v, want >= 1", snap.IntegratedAutocorrTime)
	}
	if len(snap.Windows) == 0 {
		t.Fatal("no windows recorded")
	}
	if v := reg.Gauge("mvcom_se_diag_dtv", "").Value(); math.Abs(v-snap.DTV.Estimate) > 1e-12 {
		t.Fatalf("d_TV gauge %v != snapshot %v", v, snap.DTV.Estimate)
	}
}

// TestDiagTheorem2DipAndReconvergence asserts the *estimator's* view of
// the Theorem 2 perturbation: a leave event mid-run must show up in the
// diagnostic stream as an event mark whose post-event best dips below
// the pre-event level, followed by windows that climb back (the
// re-convergence curve of Fig. 14), with the d_TV estimator restarted
// against the trimmed target.
func TestDiagTheorem2DipAndReconvergence(t *testing.T) {
	in := smallDiagInstance()
	// Tighter capacity than the d_TV instance: the full survivor set
	// must stay infeasible after the leave, so the trimmed optimum has
	// to be re-discovered by search (a real re-convergence curve)
	// instead of being adopted instantly by the full-selection offer.
	in.Capacity = 120
	// Every shard but 11 pays an age penalty (value 1.5·s − 3); shard 11
	// arrives exactly at the deadline (age 0). Losing it is
	// irreplaceable — any capacity-filling substitute swaps in another
	// penalized shard — so the optimum strictly drops at the leave.
	in.DDL = 4
	in.Latencies[11] = 4
	// ε tight enough that the leave's dip counts as an excursion below
	// the band, so time-to-ε measures the re-convergence.
	diag := seobs.New(seobs.Config{Epsilon: 0.005})
	const leaveAt = 4000
	cfg := core.SEConfig{
		Seed:              11,
		Gamma:             2,
		MaxIters:          12000,
		ConvergenceWindow: 12000,
		Diag:              diag,
	}
	// Shard 11 carries the largest value: losing it forces a real dip.
	events := []core.Event{{AtIteration: leaveAt, Kind: core.EventLeave, Index: 11}}
	se := core.NewSE(cfg)
	sol, _, err := se.SolveOnline(in, events)
	if err != nil {
		t.Fatal(err)
	}

	snap := diag.Snapshot()
	if len(snap.Events) != 1 {
		t.Fatalf("event marks = %d, want 1", len(snap.Events))
	}
	mark := snap.Events[0]
	if mark.Kind != "leave" || mark.Index != 11 || mark.Round != leaveAt {
		t.Fatalf("unexpected event mark %+v", mark)
	}

	// Pre-event peak, the dip at the mark, and the post-event recovery.
	var preBest, postBest float64 = math.Inf(-1), math.Inf(-1)
	for _, w := range snap.Windows {
		if w.Round < leaveAt && w.BestUtility > preBest {
			preBest = w.BestUtility
		}
		if w.Round >= leaveAt && w.BestUtility > postBest {
			postBest = w.BestUtility
		}
	}
	if !(mark.BestAfter < preBest) {
		t.Fatalf("no dip: best after leave %v, pre-event peak %v", mark.BestAfter, preBest)
	}
	if !(postBest > mark.BestAfter) {
		t.Fatalf("no re-convergence: post-event peak %v, dip %v", postBest, mark.BestAfter)
	}
	if math.Abs(postBest-sol.Utility) > 1e-9 {
		t.Fatalf("post-event peak %v != final solution %v", postBest, sol.Utility)
	}

	// Theorem 2 brackets the perturbation at d_TV ≤ 1/2; the restarted
	// estimator must re-converge on the trimmed target, not sit at the
	// worst case.
	pb := core.PerturbationBound(sol.Utility)
	if snap.DTV == nil || snap.DTV.Samples == 0 {
		t.Fatal("d_TV estimator not live after the leave rebind")
	}
	t.Logf("post-leave d_TV %.4f (Theorem 2 worst case %.2f), dip %.1f -> %.1f",
		snap.DTV.Estimate, pb.TVDistance, mark.BestAfter, postBest)
	if snap.DTV.Estimate >= pb.TVDistance {
		t.Fatalf("post-leave d_TV %.4f did not fall below the Theorem 2 bound %.2f",
			snap.DTV.Estimate, pb.TVDistance)
	}
	// The time-to-ε diagnostic must measure the re-convergence (after
	// the dip), not the pre-event climb.
	if snap.TimeToEpsRounds < leaveAt {
		t.Fatalf("time-to-eps %d precedes the leave at %d; it must track the re-convergence",
			snap.TimeToEpsRounds, leaveAt)
	}
}

// TestDiagNilIsOff pins the nil-is-off contract end to end: a nil Diag
// adds no state, and a Diag on a large instance disables the d_TV
// estimator but keeps the cheap stream.
func TestDiagNilIsOff(t *testing.T) {
	var nilDiag *seobs.Diag
	s := nilDiag.Snapshot()
	if s.TimeToEpsRounds != -1 || s.Rounds != 0 {
		t.Fatalf("nil diag snapshot not inert: %+v", s)
	}
	nilDiag.Bind(seobs.RunInfo{})
	nilDiag.Finalize() // must not panic

	in := smallDiagInstance()
	seNil := core.NewSE(core.SEConfig{Seed: 3, MaxIters: 2000})
	solNil, _, err := seNil.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	diag := seobs.New(seobs.Config{MaxTVShards: 4}) // 12 shards > 4: estimator off
	seDiag := core.NewSE(core.SEConfig{Seed: 3, MaxIters: 2000, Diag: diag})
	solDiag, _, err := seDiag.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if solNil.Utility != solDiag.Utility {
		t.Fatalf("diagnostics changed the result: %v != %v", solNil.Utility, solDiag.Utility)
	}
	snap := diag.Snapshot()
	if snap.DTV != nil {
		t.Fatal("d_TV estimator enabled beyond MaxTVShards")
	}
	if snap.Rounds == 0 || len(snap.Windows) == 0 || snap.UtilitySamples == 0 {
		t.Fatalf("cheap diagnostic stream missing without the estimator: %+v", snap)
	}
}
