package core

import (
	"errors"
	"math"
	"testing"
)

func TestEngineStepwiseMatchesQuality(t *testing.T) {
	in := testInstance(1, 25, 1.5, 0.4, 6)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(in.Clone(), SEConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng.trivial != nil {
		t.Fatal("binding instance should not be born converged")
	}
	improved := 0
	for i := 0; i < 1500; i++ {
		if eng.StepN(1) {
			improved++
		}
	}
	if improved == 0 {
		t.Fatal("no improvement in 1500 steps")
	}
	if eng.Iterations() != 1500 {
		t.Fatalf("iterations %d", eng.Iterations())
	}
	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(sol.Selected) {
		t.Fatal("engine best infeasible")
	}
	if math.Abs(eng.BestUtility()-sol.Utility) > 1e-9 {
		t.Fatal("BestUtility disagrees with Best")
	}
}

func TestEngineTrivialCase(t *testing.T) {
	in := Instance{
		Sizes:     []int{10, 20},
		Latencies: []float64{700, 800},
		Alpha:     1.5,
		Capacity:  100,
		Nmin:      1,
	}
	eng, err := NewEngine(in, SEConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eng.trivial == nil {
		t.Fatal("everything fits: engine should be born converged")
	}
	if eng.StepN(1) {
		t.Fatal("stepping a converged engine reported improvement")
	}
	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Count != 2 {
		t.Fatalf("trivial solution count %d", sol.Count)
	}
	if eng.BestUtility() != sol.Utility {
		t.Fatal("BestUtility mismatch")
	}
}

func TestEngineApplyEvent(t *testing.T) {
	in := testInstance(2, 15, 1.5, 0.4, 3)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(in.Clone(), SEConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		eng.StepN(1)
	}
	if err := eng.ApplyEvent(Event{Kind: EventJoin, Index: -1, Size: 1000, Latency: in.DDL - 1}); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Instance(); snap.NumShards() != 16 {
		t.Fatalf("instance shards %d", snap.NumShards())
	}
	if err := eng.ApplyEvent(Event{Kind: EventLeave, Index: 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		eng.StepN(1)
	}
	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[0] {
		t.Fatal("departed shard selected")
	}
	if len(sol.Selected) != 16 {
		t.Fatalf("selection length %d", len(sol.Selected))
	}
}

func TestEngineApplyEventOnTrivialEngine(t *testing.T) {
	in := Instance{
		Sizes:     []int{10, 20},
		Latencies: []float64{700, 800},
		Alpha:     1.5,
		Capacity:  100,
		Nmin:      1,
	}
	eng, err := NewEngine(in, SEConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A join invalidates the trivial shortcut.
	if err := eng.ApplyEvent(Event{Kind: EventJoin, Index: -1, Size: 90, Latency: 750}); err != nil {
		t.Fatal(err)
	}
	if eng.trivial != nil {
		t.Fatal("engine still trivially converged after event")
	}
	for i := 0; i < 300; i++ {
		eng.StepN(1)
	}
	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Load > 100 {
		t.Fatalf("load %d over capacity", sol.Load)
	}
}

func TestEngineValidatesInstance(t *testing.T) {
	if _, err := NewEngine(Instance{}, SEConfig{}); !errors.Is(err, ErrNoShards) {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineInstanceSnapshotIsCopy(t *testing.T) {
	in := testInstance(4, 10, 1.5, 0.5, 2)
	eng, err := NewEngine(in, SEConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Instance()
	snap.Sizes[0] = 999999
	if eng.Instance().Sizes[0] == 999999 {
		t.Fatal("Instance() exposes internal state")
	}
}
