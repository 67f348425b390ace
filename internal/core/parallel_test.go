package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"mvcom/internal/randx"
)

// setMaxProcs sets GOMAXPROCS for the rest of the test and restores it
// in Cleanup. The kernel runs min(GOMAXPROCS, Γ) workers, so this is
// how a test picks the serial path or a pool of a given size.
func setMaxProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSolveDeterministicAcrossWorkers is the seed-determinism regression
// for the parallel kernel: per-explorer split RNG streams plus the
// deterministic (round, explorer) merge order mean the worker count must
// not change a single bit of the result — not the solution, not the
// trace — for one explorer, for a few, and for more explorers than
// workers. GOMAXPROCS above 1 runs the pool path (under -race too) even
// on a single-CPU machine.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	in := testInstance(41, 60, 2, 0.45, 3)
	for _, gamma := range []int{1, 8, 25} {
		var refSol Solution
		var refTrace []TracePoint
		for i, procs := range []int{1, 2, 3, 8} {
			setMaxProcs(t, procs)
			se := NewSE(SEConfig{Seed: 7, Gamma: gamma, MaxIters: 4000})
			sol, trace, err := se.Solve(in)
			if err != nil {
				t.Fatalf("gamma=%d GOMAXPROCS=%d: %v", gamma, procs, err)
			}
			if i == 0 {
				refSol, refTrace = sol, trace
				continue
			}
			if !reflect.DeepEqual(sol, refSol) {
				t.Fatalf("gamma=%d GOMAXPROCS=%d solution diverged: got utility %v iters %d, want %v iters %d",
					gamma, procs, sol.Utility, sol.Iterations, refSol.Utility, refSol.Iterations)
			}
			if !reflect.DeepEqual(trace, refTrace) {
				t.Fatalf("gamma=%d GOMAXPROCS=%d trace diverged (%d vs %d points)", gamma, procs, len(trace), len(refTrace))
			}
		}
	}
}

// TestSolveOnlineDeterministicAcrossWorkers extends the regression to the
// event-driven path: joins and leaves are applied at synchronization
// points, so their effect must also be independent of the worker count.
func TestSolveOnlineDeterministicAcrossWorkers(t *testing.T) {
	in := testInstance(43, 40, 2, 0.5, 2)
	events := []Event{
		{AtIteration: 150, Kind: EventJoin, Index: -1, Size: 1800, Latency: 900},
		{AtIteration: 300, Kind: EventLeave, Index: 5},
		{AtIteration: 301, Kind: EventJoin, Index: -1, Size: 2400, Latency: 700},
		{AtIteration: 702, Kind: EventLeave, Index: 11},
	}
	var refSol Solution
	var refTrace []TracePoint
	for i, procs := range []int{1, 2, 3, 8} {
		setMaxProcs(t, procs)
		se := NewSE(SEConfig{Seed: 17, Gamma: 6, MaxIters: 1500})
		sol, trace, err := se.SolveOnline(in, events)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if i == 0 {
			refSol, refTrace = sol, trace
			continue
		}
		if !reflect.DeepEqual(sol, refSol) {
			t.Fatalf("GOMAXPROCS=%d online solution diverged", procs)
		}
		if !reflect.DeepEqual(trace, refTrace) {
			t.Fatalf("GOMAXPROCS=%d online trace diverged", procs)
		}
	}
}

// TestEngineStepNMatchesStep verifies that batching rounds through StepN
// is purely an execution-schedule change: the merge replays improvements
// in the same (round, explorer) order whether the coordinator steps one
// round at a time (StepN(1)) or 64, so the observed best must match
// exactly.
func TestEngineStepNMatchesStep(t *testing.T) {
	in := testInstance(47, 50, 2, 0.4, 2)
	cfg := SEConfig{Seed: 23, Gamma: 4}
	byOne, err := NewEngine(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byBatch, err := NewEngine(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 512
	for i := 0; i < rounds; i++ {
		byOne.StepN(1)
	}
	for i := 0; i < rounds/64; i++ {
		byBatch.StepN(64)
	}
	if byOne.Iterations() != byBatch.Iterations() {
		t.Fatalf("iterations diverged: %d vs %d", byOne.Iterations(), byBatch.Iterations())
	}
	if u1, u2 := byOne.BestUtility(), byBatch.BestUtility(); u1 != u2 {
		t.Fatalf("best utility diverged: %v vs %v", u1, u2)
	}
	s1, err := byOne.Best()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := byBatch.Best()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("best solutions diverged between Step and StepN")
	}
}

// refSetTimer reproduces the pre-optimization Set-timer: two independent
// Intn draws per attempt and no cached slack.
func refSetTimer(ex *explorer, th *thread) {
	r := ex.run
	th.proposalOK = false
	if len(th.selIdx) == 0 || len(th.unselIdx) == 0 {
		return
	}
	for attempt := 0; attempt < r.cfg.SwapRetries; attempt++ {
		outPos := th.selIdx[ex.rng.Intn(len(th.selIdx))]
		inPos := th.unselIdx[ex.rng.Intn(len(th.unselIdx))]
		if th.load-r.sizes[outPos]+r.sizes[inPos] > r.in.Capacity {
			continue
		}
		th.out, th.in = outPos, inPos
		th.dU = r.vals[inPos] - r.vals[outPos]
		th.proposalOK = true
		return
	}
}

// gumbelMaxPick is the pre-optimization timer race: the winner of
// exponential timers with the given log rates is argmax(log rate + G)
// over i.i.d. standard Gumbel noise G, which is exactly categorical with
// P(i) ∝ rate. Entries of -Inf never win; -1 means none is finite. After
// a pick it makes the elapsed-time draw the old race made, keeping the
// RNG stream (and so the reference chain) as it was.
func gumbelMaxPick(rng *randx.RNG, logRates []float64) int {
	best, bestV := -1, math.Inf(-1)
	for i, lr := range logRates {
		if math.IsInf(lr, -1) {
			continue
		}
		u := rng.Float64()
		for u == 0 { // avoid log(0)
			u = rng.Float64()
		}
		if v := lr - math.Log(-math.Log(u)); v > bestV {
			best, bestV = i, v
		}
	}
	if best >= 0 {
		rng.Exponential(1)
	}
	return best
}

// refStep reproduces the pre-optimization transition round: log(k−n)
// recomputed per thread per round and the race resolved by a Gumbel-max
// pick (one uniform and one Gumbel per thread).
func refStep(ex *explorer) {
	r := ex.run
	k := len(r.candidates)
	for i, th := range ex.threads {
		if !th.active || !th.proposalOK {
			ex.logRates[i] = math.Inf(-1)
			continue
		}
		ex.logRates[i] = math.Log(float64(k-th.n)) + 0.5*r.betaEff*th.dU
	}
	if winner := gumbelMaxPick(ex.rng, ex.logRates); winner >= 0 {
		ex.threads[winner].applySwap(r)
	}
	for _, th := range ex.threads {
		if th.active {
			refSetTimer(ex, th)
		}
	}
}

// TestStationaryDistributionMatchesReferenceKernel proves the hot-path
// optimizations (cached rateBase, single-draw proposals, one-uniform CDF
// race instead of Gumbel-max) leave the chain's stationary distribution
// unchanged: the optimized kernel and a reference implementation of the
// old kernel run side by side on the same instance, and the long-run
// occupancy of the cardinality-2 thread's six states must agree within
// sampling noise.
func TestStationaryDistributionMatchesReferenceKernel(t *testing.T) {
	in := Instance{
		Sizes:     []int{10, 14, 18, 22},
		Latencies: []float64{700, 800, 900, 1000},
		Alpha:     1,
		Capacity:  1000,
		Nmin:      1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	const rounds = 300000
	stateOf := func(th *thread) int {
		// Identify the 2-subset by the pair of selected positions.
		a, b := -1, -1
		for pos, sel := range th.selected {
			if sel {
				if a < 0 {
					a = pos
				} else {
					b = pos
				}
			}
		}
		return a*4 + b
	}
	occupancy := func(step func(*explorer), seed int64) (map[int]float64, int) {
		inCopy := in.Clone()
		r, err := newRun(&inCopy, SEConfig{Seed: seed, Beta: 1}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		ex := r.explorers[0]
		var th *thread
		for _, cand := range ex.threads {
			if cand.n == 2 {
				th = cand
			}
		}
		if th == nil {
			t.Fatal("no cardinality-2 thread")
		}
		counts := make(map[int]float64)
		for i := 0; i < rounds; i++ {
			step(ex)
			counts[stateOf(th)]++
		}
		best := -1
		var bestMass float64
		for s, c := range counts {
			counts[s] = c / rounds
			if counts[s] > bestMass {
				best, bestMass = s, counts[s]
			}
		}
		return counts, best
	}
	newOcc, newMode := occupancy(func(ex *explorer) { ex.stepRound(0) }, 5)
	refOcc, refMode := occupancy(refStep, 905)
	var tv float64
	for s := 0; s < 16; s++ {
		tv += math.Abs(newOcc[s] - refOcc[s])
	}
	tv /= 2
	if tv > 0.025 {
		t.Fatalf("stationary distributions diverge: TV distance %.4f (new %v vs reference %v)", tv, newOcc, refOcc)
	}
	// Both chains must concentrate on the highest-value pair {2,3}.
	if want := 2*4 + 3; newMode != want || refMode != want {
		t.Fatalf("mode state: new %d, reference %d, want %d", newMode, refMode, want)
	}
}

// TestSolveRepeatedRunsBitIdentical guards the weaker property that two
// back-to-back runs with one config agree exactly (no hidden global
// state, map iteration, or time dependence).
func TestSolveRepeatedRunsBitIdentical(t *testing.T) {
	in := testInstance(53, 80, 2, 0.4, 3)
	cfg := SEConfig{Seed: 99, Gamma: 8, MaxIters: 3000}
	sol1, trace1, err := NewSE(cfg).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	sol2, trace2, err := NewSE(cfg).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol1, sol2) || !reflect.DeepEqual(trace1, trace2) {
		t.Fatal("same-seed runs diverged")
	}
}

// TestSplitStreamsDriveDistinctExplorers spot-checks that the Γ explorers
// really do receive decorrelated streams: with Γ=2 the two explorers'
// first swap proposals should differ for almost every seed (here: all of
// a handful).
func TestSplitStreamsDriveDistinctExplorers(t *testing.T) {
	in := testInstance(59, 30, 2, 0.5, 2)
	identical := 0
	for seed := int64(0); seed < 5; seed++ {
		inCopy := in.Clone()
		if err := inCopy.Validate(); err != nil {
			t.Fatal(err)
		}
		r, err := newRun(&inCopy, SEConfig{Seed: seed, Gamma: 2}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		a, b := r.explorers[0], r.explorers[1]
		same := true
		for i := range a.threads {
			ta, tb := a.threads[i], b.threads[i]
			if ta.active != tb.active || ta.out != tb.out || ta.in != tb.in {
				same = false
				break
			}
		}
		if same {
			identical++
		}
	}
	if identical > 0 {
		t.Fatalf("%d of 5 seeds produced identical explorer states", identical)
	}
}
