package baseline

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mvcom/internal/core"
	"mvcom/internal/randx"
)

// testInstance mirrors the core-package helper: n shards with sizes
// ~U[500,3000], latencies ~U[600,1300] s.
func testInstance(seed int64, n int, alpha, capFrac float64, nmin int) core.Instance {
	rng := randx.New(seed)
	in := core.Instance{
		Sizes:     make([]int, n),
		Latencies: make([]float64, n),
		Alpha:     alpha,
		Nmin:      nmin,
	}
	total := 0
	for i := 0; i < n; i++ {
		in.Sizes[i] = 500 + rng.Intn(2501)
		in.Latencies[i] = rng.Uniform(600, 1300)
		total += in.Sizes[i]
	}
	in.Capacity = int(capFrac * float64(total))
	if in.Capacity < 1 {
		in.Capacity = 1
	}
	return in
}

func allSolvers(seed int64) []core.Solver {
	return []core.Solver{
		SA{Seed: seed, Iterations: 4000},
		DP{},
		WOA{Seed: seed, Iterations: 150, Whales: 20},
		Greedy{},
	}
}

func TestSolverNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range allSolvers(1) {
		names[s.Name()] = true
	}
	for _, want := range []string{"SA", "DP", "WOA", "Greedy"} {
		if !names[want] {
			t.Fatalf("missing solver %q", want)
		}
	}
	if (BruteForce{}).Name() != "BruteForce" {
		t.Fatal("BruteForce name wrong")
	}
}

func TestAllSolversProduceFeasibleSolutions(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in := testInstance(seed, 30, 1.5, 0.4, 8)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, s := range allSolvers(seed) {
			sol, trace, err := s.Solve(in.Clone())
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name(), seed, err)
			}
			if !in.Feasible(sol.Selected) {
				t.Fatalf("%s seed %d: infeasible solution (count=%d load=%d)",
					s.Name(), seed, sol.Count, sol.Load)
			}
			if len(trace) == 0 {
				t.Fatalf("%s: empty trace", s.Name())
			}
			if math.Abs(sol.Utility-in.Utility(sol.Selected)) > 1e-6 {
				t.Fatalf("%s: cached utility mismatch", s.Name())
			}
		}
	}
}

func TestBruteForceExactOnTinyInstance(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{30, 40, 50, 60},
		Latencies: []float64{700, 800, 900, 1000},
		Alpha:     2,
		Capacity:  100,
		Nmin:      1,
	}
	sol, _, err := BruteForce{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Values: age terms (300,200,100,0); v = 2s - age: (-240, -120, 0, 120).
	// Capacity 100: best is {3} with value 120 ({2,3} would be 110 > cap).
	if sol.Count != 1 || !sol.Selected[3] {
		t.Fatalf("brute force selected %v", sol.Indices())
	}
	if math.Abs(sol.Utility-120) > 1e-9 {
		t.Fatalf("utility %v", sol.Utility)
	}
}

func TestBruteForceRespectsNmin(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{30, 40, 50, 60},
		Latencies: []float64{700, 800, 900, 1000},
		Alpha:     2,
		Capacity:  100,
		Nmin:      2,
	}
	sol, _, err := BruteForce{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Count < 2 {
		t.Fatalf("count %d below Nmin", sol.Count)
	}
	// Best 2-subset within capacity 100: {2,3} is 110 > cap; {1,3} is 100
	// with value -120+120 = 0; {0,3} is 90 with value -240+120=-120;
	// {1,2} is 90 with value -120+0=-120. So {1,3}.
	if !sol.Selected[1] || !sol.Selected[3] {
		t.Fatalf("selected %v", sol.Indices())
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	in := testInstance(1, 18, 1.5, 0.5, 1)
	if _, _, err := (BruteForce{MaxShards: 16}).Solve(in.Clone()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := (BruteForce{MaxShards: 18}).Solve(in.Clone()); err != nil {
		t.Fatalf("raised limit rejected: %v", err)
	}
}

func TestBruteForceInfeasible(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{100, 100},
		Latencies: []float64{700, 800},
		Alpha:     1,
		Capacity:  150,
		Nmin:      2,
	}
	if _, _, err := (BruteForce{}).Solve(in); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestDPMatchesBruteForceWithoutScaling(t *testing.T) {
	// With TableWidth >= capacity the DP is exact; with Nmin=0 it must
	// equal the brute-force optimum.
	for seed := int64(0); seed < 6; seed++ {
		in := testInstance(seed+50, 14, 1.5, 0.5, 0)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		exact, _, err := BruteForce{}.Solve(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		dp, _, err := DP{TableWidth: in.Capacity}.Solve(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Utility-exact.Utility) > 1e-6 {
			t.Fatalf("seed %d: DP %v != optimum %v", seed, dp.Utility, exact.Utility)
		}
	}
}

func TestDPScalingNeverBeatsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		in := testInstance(seed, 12, 1.5, 0.45, 0)
		if err := in.Validate(); err != nil {
			return false
		}
		exact, _, err := BruteForce{}.Solve(in.Clone())
		if err != nil {
			return errors.Is(err, core.ErrInfeasible)
		}
		// Coarse scaling: rounded weights shrink the feasible set, so the
		// scaled DP can only do worse or equal — and must stay feasible.
		dp, _, err := DP{TableWidth: 50}.Solve(in.Clone())
		if err != nil {
			return errors.Is(err, core.ErrInfeasible)
		}
		return dp.Utility <= exact.Utility+1e-6 && in.Feasible(dp.Selected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSATraceMonotone(t *testing.T) {
	in := testInstance(3, 40, 1.5, 0.4, 10)
	_, trace, err := SA{Seed: 3, Iterations: 3000}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Utility < trace[i-1].Utility-1e-9 {
			t.Fatal("SA best-so-far trace decreased")
		}
	}
}

func TestSADeterministicPerSeed(t *testing.T) {
	in := testInstance(4, 25, 1.5, 0.4, 6)
	a, _, err := SA{Seed: 9, Iterations: 2000}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SA{Seed: 9, Iterations: 2000}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility {
		t.Fatalf("SA same seed diverged: %v vs %v", a.Utility, b.Utility)
	}
}

func TestSANearOptimalOnSmallInstances(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := testInstance(seed+10, 12, 1.5, 0.5, 3)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		exact, _, err := BruteForce{}.Solve(in.Clone())
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		sa, _, err := SA{Seed: seed, Iterations: 8000}.Solve(in.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if sa.Utility < 0.9*exact.Utility {
			t.Fatalf("seed %d: SA %v below 90%% of optimum %v", seed, sa.Utility, exact.Utility)
		}
	}
}

func TestWOATraceMonotone(t *testing.T) {
	in := testInstance(5, 30, 1.5, 0.4, 8)
	_, trace, err := WOA{Seed: 5, Iterations: 100, Whales: 15}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Utility < trace[i-1].Utility-1e-9 {
			t.Fatal("WOA best-so-far trace decreased")
		}
	}
}

func TestWOADeterministicPerSeed(t *testing.T) {
	in := testInstance(6, 20, 1.5, 0.4, 5)
	a, _, err := WOA{Seed: 2, Iterations: 80, Whales: 10}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := WOA{Seed: 2, Iterations: 80, Whales: 10}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility {
		t.Fatal("WOA same seed diverged")
	}
}

func TestGreedyIsDeterministic(t *testing.T) {
	in := testInstance(7, 30, 1.5, 0.4, 8)
	a, _, err := Greedy{}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Greedy{}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utility != b.Utility || a.Count != b.Count {
		t.Fatal("greedy not deterministic")
	}
}

func TestGreedyNeverBeatsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		in := testInstance(seed, 12, 1.5, 0.5, 2)
		if err := in.Validate(); err != nil {
			return false
		}
		exact, _, err := BruteForce{}.Solve(in.Clone())
		if err != nil {
			return errors.Is(err, core.ErrInfeasible)
		}
		g, _, err := Greedy{}.Solve(in.Clone())
		if err != nil {
			return errors.Is(err, core.ErrInfeasible)
		}
		return g.Utility <= exact.Utility+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolversRejectInvalidInstances(t *testing.T) {
	bad := core.Instance{} // no shards
	for _, s := range allSolvers(1) {
		if _, _, err := s.Solve(bad); err == nil {
			t.Fatalf("%s accepted an invalid instance", s.Name())
		}
	}
}

func TestSolversNoCandidates(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{10},
		Latencies: []float64{500},
		DDL:       100,
		Alpha:     1,
		Capacity:  50,
	}
	for _, s := range allSolvers(1) {
		if _, _, err := s.Solve(in); !errors.Is(err, core.ErrNoCandidates) {
			t.Fatalf("%s: err = %v", s.Name(), err)
		}
	}
}

func TestSolversInfeasibleNmin(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{100, 100, 100},
		Latencies: []float64{700, 800, 900},
		Alpha:     1,
		Capacity:  150,
		Nmin:      3,
	}
	for _, s := range allSolvers(1) {
		if _, _, err := s.Solve(in.Clone()); !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("%s: err = %v", s.Name(), err)
		}
	}
}

func TestRepairNminPadsWithSmallest(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{500, 20, 30, 400},
		Latencies: []float64{700, 750, 800, 900},
		Alpha:     1,
		Capacity:  460,
		Nmin:      3,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	pr, err := prepare(&in)
	if err != nil {
		t.Fatal(err)
	}
	sel := []bool{false, false, false, true} // load 400, count 1
	if !pr.repairNmin(sel) {
		t.Fatal("repair failed")
	}
	// Needs 2 more: smallest are 20 and 30 → load 450 ≤ 460.
	if !sel[1] || !sel[2] || sel[0] {
		t.Fatalf("repair picked %v", sel)
	}
}
