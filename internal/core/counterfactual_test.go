package core

import (
	"math"
	"testing"
)

func counterfactualInstance() Instance {
	in := Instance{
		Sizes:     []int{100, 80, 60, 40, 500},
		Latencies: []float64{10, 20, 30, 40, 60},
		DDL:       50,
		Alpha:     1,
		Capacity:  200,
		Nmin:      2,
	}
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

func TestMarginalsMatchValues(t *testing.T) {
	in := counterfactualInstance()
	sol := NewSolution(&in, []bool{true, true, false, false, false})
	ms := MarginalsInto(nil, &in, sol)
	if len(ms) != 2 {
		t.Fatalf("marginals = %+v, want 2 entries", ms)
	}
	var sum float64
	for _, m := range ms {
		if got := in.Value(m.Shard); m.Utility != got {
			t.Fatalf("shard %d marginal %v, want Value %v", m.Shard, m.Utility, got)
		}
		if !m.Binding {
			t.Fatalf("shard %d should be binding at Count==Nmin", m.Shard)
		}
		sum += m.Utility
	}
	if math.Abs(sum-sol.Utility) > 1e-9 {
		t.Fatalf("marginals sum %v, want solution utility %v", sum, sol.Utility)
	}

	// With three selected, removing any one keeps Count >= Nmin.
	sol3 := NewSolution(&in, []bool{true, true, true, false, false})
	for _, m := range MarginalsInto(nil, &in, sol3) {
		if m.Binding {
			t.Fatalf("shard %d binding with slack above Nmin", m.Shard)
		}
	}
}

func TestRejectedCounterfactuals(t *testing.T) {
	in := counterfactualInstance()
	// Shards 0+1 selected: load 180 of 200, so admitting shard 2 (60
	// txs) needs 40 freed. Values: shard0 60, shard1 50, shard2 40,
	// shard3 30; the greedy eviction order is ascending value, so
	// shard 1 goes first. Shard 4 is a straggler (latency 60 > DDL 50)
	// and must not appear among the rejections at all.
	sol := NewSolution(&in, []bool{true, true, false, false, false})
	rej := RejectedCounterfactualsInto(nil, &in, sol, 10)
	if len(rej) != 2 {
		t.Fatalf("rejections = %+v, want 2 (shards 2 and 3; straggler 4 excluded)", rej)
	}
	// Highest-value rejected first: shard 2 (40) before shard 3 (30).
	if rej[0].Shard != 2 || rej[1].Shard != 3 {
		t.Fatalf("rejection order = %d,%d, want 2,3", rej[0].Shard, rej[1].Shard)
	}
	r := rej[0]
	if !r.Feasible {
		t.Fatalf("admitting shard 2 should be feasible via eviction: %+v", r)
	}
	if len(r.Evicted) != 1 || r.Evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1] (lowest-value selected)", r.Evicted)
	}
	if want := in.Value(2) - in.Value(1); math.Abs(r.NetGain-want) > 1e-9 {
		t.Fatalf("net gain %v, want %v", r.NetGain, want)
	}
	for _, r := range rej {
		if r.Shard == 4 {
			t.Fatalf("straggler 4 in rejections: %+v", rej)
		}
	}
}

func TestRejectedCounterfactualsOverCapacity(t *testing.T) {
	in := Instance{
		Sizes:     []int{50, 50, 900},
		Latencies: []float64{1, 2, 3},
		DDL:       10,
		Alpha:     1,
		Capacity:  120,
		Nmin:      1,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	sol := NewSolution(&in, []bool{true, true, false})
	rej := RejectedCounterfactualsInto(nil, &in, sol, 5)
	if len(rej) != 1 || rej[0].Shard != 2 {
		t.Fatalf("rejections = %+v, want only shard 2", rej)
	}
	if rej[0].Feasible {
		t.Fatalf("shard 2 alone exceeds capacity, must be infeasible: %+v", rej[0])
	}
	if len(rej[0].Evicted) != 0 {
		t.Fatalf("no eviction set can admit shard 2: %+v", rej[0])
	}
}

func TestRejectedCounterfactualsNminFloor(t *testing.T) {
	// Admitting shard 2 (120 txs into 130 capacity) would require
	// evicting both selected shards, dropping the post-swap count to 1
	// below Nmin=2 — so the admission must be marked infeasible.
	in := Instance{
		Sizes:     []int{60, 60, 120},
		Latencies: []float64{1, 2, 3},
		DDL:       10,
		Alpha:     1,
		Capacity:  130,
		Nmin:      2,
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	sol := NewSolution(&in, []bool{true, true, false})
	rej := RejectedCounterfactualsInto(nil, &in, sol, 5)
	if len(rej) != 1 {
		t.Fatalf("rejections = %+v, want 1", rej)
	}
	if rej[0].Feasible {
		t.Fatalf("eviction would break Nmin, must be infeasible: %+v", rej[0])
	}
}

// TestCounterfactualPathAllocFree pins the decision journal's per-epoch
// core calls at zero allocations once dst is recycled: the arrived set
// is walked in place, never materialized as an index slice.
func TestCounterfactualPathAllocFree(t *testing.T) {
	in := counterfactualInstance()
	sol := NewSolution(&in, []bool{true, true, false, false, false})
	rej := RejectedCounterfactualsInto(nil, &in, sol, 8)
	if len(rej) == 0 || len(rej[0].Evicted) == 0 {
		t.Fatalf("fixture exercises no eviction set: %+v", rej)
	}
	margs := MarginalsInto(nil, &in, sol)
	allocs := testing.AllocsPerRun(100, func() {
		rej = RejectedCounterfactualsInto(rej, &in, sol, 8)
		margs = MarginalsInto(margs, &in, sol)
		_ = in.TotalArrivedSize()
		_ = in.NegativeDropExact()
	})
	if allocs != 0 {
		t.Fatalf("%v allocs/op on a recycled dst, want 0", allocs)
	}
}
