package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mvcom/internal/randx"
	"mvcom/internal/seobs"
)

// bruteForce enumerates all subsets of a small instance and returns the
// best feasible utility (selections restricted to arrived shards).
func bruteForce(in *Instance) (float64, bool) {
	cands := in.Arrived()
	k := len(cands)
	best := math.Inf(-1)
	found := false
	for mask := 0; mask < 1<<k; mask++ {
		count, load := 0, 0
		var util float64
		for b := 0; b < k; b++ {
			if mask>>b&1 == 1 {
				i := cands[b]
				count++
				load += in.Sizes[i]
				util += in.Value(i)
			}
		}
		if count < in.Nmin || load > in.Capacity {
			continue
		}
		found = true
		if util > best {
			best = util
		}
	}
	return best, found
}

func TestSolveFindsNearOptimalOnSmallInstances(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := testInstance(seed, 12, 1.5, 0.5, 3)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		opt, ok := bruteForce(&in)
		if !ok {
			continue
		}
		se := NewSE(SEConfig{Seed: seed, MaxIters: 6000, ConvergenceWindow: 800})
		sol, _, err := se.Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !in.Feasible(sol.Selected) {
			t.Fatalf("seed %d: infeasible solution", seed)
		}
		if sol.Utility < 0.95*opt {
			t.Fatalf("seed %d: SE %.1f < 95%% of optimum %.1f", seed, sol.Utility, opt)
		}
	}
}

func TestSolveSolutionInternalConsistency(t *testing.T) {
	in := testInstance(42, 30, 1.5, 0.4, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	se := NewSE(SEConfig{Seed: 7})
	sol, trace, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Utility-in.Utility(sol.Selected)) > 1e-6 {
		t.Fatalf("cached utility %v != recomputed %v", sol.Utility, in.Utility(sol.Selected))
	}
	if sol.Load != in.Load(sol.Selected) || sol.Count != in.Count(sol.Selected) {
		t.Fatal("cached load/count disagree")
	}
	if len(trace) == 0 {
		t.Fatal("empty convergence trace")
	}
	last := trace[len(trace)-1]
	if math.Abs(last.Utility-sol.Utility) > 1e-6 {
		t.Fatalf("trace tail %v != solution utility %v", last.Utility, sol.Utility)
	}
}

func TestSolveTraceMonotone(t *testing.T) {
	in := testInstance(5, 40, 1.5, 0.5, 10)
	se := NewSE(SEConfig{Seed: 5})
	_, trace, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Utility < trace[i-1].Utility-1e-9 {
			t.Fatalf("best-so-far utility decreased at %d: %v -> %v",
				i, trace[i-1].Utility, trace[i].Utility)
		}
		if trace[i].Iteration < trace[i-1].Iteration {
			t.Fatal("trace iterations not monotone")
		}
	}
}

func TestSolveTrivialWhenEverythingFits(t *testing.T) {
	in := Instance{
		Sizes:     []int{10, 20, 30},
		Latencies: []float64{700, 800, 900},
		Alpha:     1.5,
		Capacity:  1000, // all fit
		Nmin:      2,
	}
	se := NewSE(SEConfig{Seed: 1})
	sol, trace, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Count != 3 {
		t.Fatalf("trivial case should select everything, got %d", sol.Count)
	}
	if len(trace) != 1 {
		t.Fatalf("trivial case should not iterate, trace %v", trace)
	}
}

// trivialDiagInstance fits the block, so Alg. 1 line 1 permits every
// arrived shard (utility 438.5), though its last shard has negative
// value: a random thread leaving it out scores 447.
func trivialDiagInstance() Instance {
	return Instance{
		Sizes:     []int{100, 100, 100, 1},
		Latencies: []float64{9, 9, 9, 0},
		DDL:       10,
		Alpha:     1.5,
		Capacity:  1000,
		Nmin:      1,
	}
}

// TestTrivialSolveDiagDescribesReturnedSolution pins the journaled
// digest of a trivial solve to the solution it returned: one
// improvement at round 0, at the all-arrived utility.
func TestTrivialSolveDiagDescribesReturnedSolution(t *testing.T) {
	prev := Solution{Selected: []bool{true, true, true, false}}
	for _, warm := range []bool{false, true} {
		diag := seobs.New(seobs.Config{})
		se := NewSE(SEConfig{Seed: 1, Gamma: 4, WarmStart: warm, Diag: diag})
		sol, _, err := se.Solve(trivialDiagInstance())
		if warm {
			sol, _, err = se.SolveFrom(trivialDiagInstance(), prev)
		}
		if err != nil {
			t.Fatal(err)
		}
		if sol.Count != 4 || sol.Utility != 438.5 {
			t.Fatalf("warm=%v: trivial solve returned %+v, want all four shards at 438.5", warm, sol)
		}
		dg := diag.Digest()
		if !dg.HaveBest || dg.BestUtility != sol.Utility || dg.Improvements != 1 || dg.Rounds != 0 || dg.TimeToEpsRounds != 0 {
			t.Fatalf("warm=%v: digest %+v does not describe the returned utility %v", warm, dg, sol.Utility)
		}
	}
}

// TestTrivialSolveAllocs bounds a trivial solve's allocations: four
// today (the instance, the selection, its copy in the Solution, and the
// one-point trace), with no RNG, explorer or thread built (179 when SE
// set-up ran first).
func TestTrivialSolveAllocs(t *testing.T) {
	se := NewSE(SEConfig{Seed: 1, Gamma: 4, WarmStart: true})
	in := trivialDiagInstance()
	prev := Solution{Selected: []bool{true, true, true, false}}
	const bound = 6
	if n := testing.AllocsPerRun(50, func() { _, _, _ = se.Solve(in) }); n > bound {
		t.Errorf("trivial Solve: %v allocs, want <= %d", n, bound)
	}
	if n := testing.AllocsPerRun(50, func() { _, _, _ = se.SolveFrom(in, prev) }); n > bound {
		t.Errorf("trivial SolveFrom: %v allocs, want <= %d", n, bound)
	}
}

func TestSolveRespectsCapacity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := testInstance(seed+100, 25, 1.5, 0.3, 5)
		se := NewSE(SEConfig{Seed: seed})
		sol, _, err := se.Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Load > in.Capacity {
			t.Fatalf("seed %d: load %d exceeds capacity %d", seed, sol.Load, in.Capacity)
		}
		if sol.Count < in.Nmin {
			t.Fatalf("seed %d: count %d below Nmin %d", seed, sol.Count, in.Nmin)
		}
	}
}

func TestSolveInfeasibleNmin(t *testing.T) {
	// Nmin = 4 but capacity admits at most one shard: infeasible.
	in := Instance{
		Sizes:     []int{100, 100, 100, 100},
		Latencies: []float64{700, 800, 900, 1000},
		Alpha:     1.5,
		Capacity:  150,
		Nmin:      4,
	}
	se := NewSE(SEConfig{Seed: 1, MaxIters: 200})
	_, _, err := se.Solve(in)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveValidatesInstance(t *testing.T) {
	se := NewSE(SEConfig{Seed: 1})
	if _, _, err := se.Solve(Instance{}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveNoCandidates(t *testing.T) {
	in := Instance{
		Sizes:     []int{10},
		Latencies: []float64{500},
		DDL:       100, // everything misses the deadline
		Alpha:     1,
		Capacity:  100,
	}
	se := NewSE(SEConfig{Seed: 1})
	if _, _, err := se.Solve(in); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveDeterministicPerSeed(t *testing.T) {
	in := testInstance(9, 20, 1.5, 0.5, 5)
	a, _, err := NewSE(SEConfig{Seed: 3, MaxIters: 1500}).Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NewSE(SEConfig{Seed: 3, MaxIters: 1500}).Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || a.Count != b.Count {
		t.Fatalf("same seed diverged: %v vs %v", a.Utility, b.Utility)
	}
}

func TestSolveGammaImprovesOrMatches(t *testing.T) {
	// Averaged over seeds, Γ=8 must converge to at least the Γ=1 utility
	// (the Fig. 8 effect).
	var sum1, sum8 float64
	for seed := int64(0); seed < 6; seed++ {
		in := testInstance(seed+200, 40, 1.5, 0.4, 10)
		s1, _, err := NewSE(SEConfig{Seed: seed, Gamma: 1, MaxIters: 1200, ConvergenceWindow: 1200}).Solve(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		s8, _, err := NewSE(SEConfig{Seed: seed, Gamma: 8, MaxIters: 1200, ConvergenceWindow: 1200}).Solve(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		sum1 += s1.Utility
		sum8 += s8.Utility
	}
	if sum8 < sum1 {
		t.Fatalf("Γ=8 mean utility %.1f below Γ=1 %.1f", sum8/6, sum1/6)
	}
}

func TestSolveStragglersNeverSelected(t *testing.T) {
	in := Instance{
		Sizes:     []int{100, 120, 5000},
		Latencies: []float64{700, 800, 2000},
		DDL:       1000,
		Alpha:     10,
		Capacity:  300,
		Nmin:      1,
	}
	se := NewSE(SEConfig{Seed: 2})
	sol, _, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[2] {
		t.Fatal("straggler beyond the deadline was selected")
	}
}

func TestSolveFeasibilityProperty(t *testing.T) {
	f := func(seed int64, rawN, rawNmin uint8, rawCap uint8) bool {
		n := int(rawN)%20 + 4
		nmin := int(rawNmin) % (n / 2)
		capFrac := 0.25 + float64(rawCap%50)/100.0
		in := testInstance(seed, n, 1.5, capFrac, nmin)
		if err := in.Validate(); err != nil {
			return false
		}
		se := NewSE(SEConfig{Seed: seed, MaxIters: 500, ConvergenceWindow: 200})
		sol, _, err := se.Solve(in)
		if errors.Is(err, ErrInfeasible) {
			return true // acceptable: random instance may be infeasible
		}
		if err != nil {
			return false
		}
		return in.Feasible(sol.Selected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	se := NewSE(SEConfig{})
	cfg := se.Config()
	if cfg.Beta != 2 || cfg.Gamma != 1 || cfg.MaxIters != 20000 {
		t.Fatalf("defaults %+v", cfg)
	}
	if cfg.ConvergenceWindow <= 0 || cfg.SwapRetries <= 0 {
		t.Fatalf("defaults %+v", cfg)
	}
}

func TestSolveLargeUtilityScaleNoOverflow(t *testing.T) {
	// β=2 with utilities ~10⁵: the naive exp(½βΔU) overflows float64;
	// the log-space race must still make progress and return a finite
	// utility.
	rng := randx.New(1)
	n := 100
	in := Instance{
		Sizes:     make([]int, n),
		Latencies: make([]float64, n),
		Alpha:     10,
		Nmin:      20,
	}
	total := 0
	for i := 0; i < n; i++ {
		in.Sizes[i] = 50000 + rng.Intn(50000)
		in.Latencies[i] = rng.Uniform(600, 1300)
		total += in.Sizes[i]
	}
	in.Capacity = total / 2
	se := NewSE(SEConfig{Seed: 4, MaxIters: 800, ConvergenceWindow: 300})
	sol, _, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(sol.Utility, 0) || math.IsNaN(sol.Utility) {
		t.Fatalf("non-finite utility %v", sol.Utility)
	}
	if sol.Count < in.Nmin {
		t.Fatalf("count %d below Nmin", sol.Count)
	}
}

func TestSolveBeatsRandomSelection(t *testing.T) {
	in := testInstance(77, 60, 1.5, 0.4, 15)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	se := NewSE(SEConfig{Seed: 7, Gamma: 4})
	sol, _, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Mean utility of 50 random feasible selections.
	rng := randx.New(99)
	cands := in.Arrived()
	var sum float64
	samples := 0
	for trial := 0; trial < 200 && samples < 50; trial++ {
		k := in.Nmin + rng.Intn(len(cands)-in.Nmin)
		pick, err := rng.SampleWithoutReplacement(len(cands), k)
		if err != nil {
			t.Fatal(err)
		}
		sel := make([]bool, in.NumShards())
		load := 0
		for _, p := range pick {
			sel[cands[p]] = true
			load += in.Sizes[cands[p]]
		}
		if load > in.Capacity {
			continue
		}
		sum += in.Utility(sel)
		samples++
	}
	if samples == 0 {
		t.Skip("no random feasible samples found")
	}
	if sol.Utility <= sum/float64(samples) {
		t.Fatalf("SE %.1f did not beat mean random %.1f", sol.Utility, sum/float64(samples))
	}
}

func TestThreadCardinalities(t *testing.T) {
	// Small K: every cardinality gets a thread.
	got := threadCardinalities(10, 64)
	if len(got) != 9 || got[0] != 1 || got[8] != 9 {
		t.Fatalf("small lattice %v", got)
	}
	// Large K: an evenly spaced lattice capped at MaxThreads, covering
	// both endpoints, strictly increasing.
	got = threadCardinalities(801, 64)
	if len(got) > 64 {
		t.Fatalf("lattice size %d", len(got))
	}
	if got[0] != 1 || got[len(got)-1] != 800 {
		t.Fatalf("lattice endpoints %v ... %v", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("lattice not increasing at %d: %v", i, got)
		}
	}
	if threadCardinalities(1, 64) != nil {
		t.Fatal("K=1 should have no threads")
	}
}

func TestSolveMaxThreadsConfigurable(t *testing.T) {
	in := testInstance(88, 120, 1.5, 0.4, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	wide, _, err := NewSE(SEConfig{Seed: 1, MaxThreads: 200, MaxIters: 400, ConvergenceWindow: 400}).Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	narrow, _, err := NewSE(SEConfig{Seed: 1, MaxThreads: 16, MaxIters: 400, ConvergenceWindow: 400}).Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(wide.Selected) || !in.Feasible(narrow.Selected) {
		t.Fatal("infeasible under thread-cap variants")
	}
}
