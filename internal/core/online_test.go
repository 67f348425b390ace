package core

import (
	"math"
	"sync"
	"testing"

	"mvcom/internal/seobs"
)

func onlineInstance(seed int64, n int) Instance {
	in := testInstance(seed, n, 1.5, 0.5, n/4)
	return in
}

func TestSolveOnlineNoEventsMatchesFeasibility(t *testing.T) {
	in := onlineInstance(1, 20)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	se := NewSE(SEConfig{Seed: 1, MaxIters: 1200})
	sol, trace, err := se.SolveOnline(in.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(sol.Selected) {
		t.Fatal("infeasible online solution")
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
}

func TestSolveOnlineJoinGrowsCandidateSet(t *testing.T) {
	in := onlineInstance(2, 15)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{AtIteration: 100, Kind: EventJoin, Index: -1, Size: 2000, Latency: in.DDL - 1},
		{AtIteration: 200, Kind: EventJoin, Index: -1, Size: 1500, Latency: in.DDL - 2},
	}
	se := NewSE(SEConfig{Seed: 2, MaxIters: 800})
	sol, _, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 17 {
		t.Fatalf("selection length %d, want 17 after two joins", len(sol.Selected))
	}
	if sol.Load > in.Capacity {
		t.Fatalf("load %d exceeds capacity", sol.Load)
	}
}

func TestSolveOnlineJoinOfStragglerIgnored(t *testing.T) {
	in := onlineInstance(3, 12)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{AtIteration: 50, Kind: EventJoin, Index: -1, Size: 99999, Latency: in.DDL + 100},
	}
	se := NewSE(SEConfig{Seed: 3, MaxIters: 400})
	sol, _, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	// The straggler is recorded in the instance but never selected.
	if len(sol.Selected) != 13 {
		t.Fatalf("selection length %d", len(sol.Selected))
	}
	if sol.Selected[12] {
		t.Fatal("straggler beyond the deadline was selected")
	}
}

func TestSolveOnlineLeaveRemovesShard(t *testing.T) {
	in := onlineInstance(4, 16)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remove the largest shard mid-run.
	biggest := 0
	for i, s := range in.Sizes {
		if s > in.Sizes[biggest] {
			biggest = i
		}
	}
	events := []Event{{AtIteration: 150, Kind: EventLeave, Index: biggest}}
	se := NewSE(SEConfig{Seed: 4, MaxIters: 900})
	sol, _, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[biggest] {
		t.Fatal("departed shard still selected")
	}
}

func TestSolveOnlineLeaveThenRejoin(t *testing.T) {
	// The Fig. 9(a) scenario: a committee fails, then recovers shortly
	// after; utility dips, then re-converges.
	in := onlineInstance(5, 16)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	target := 3
	events := []Event{
		{AtIteration: 200, Kind: EventLeave, Index: target},
		{AtIteration: 500, Kind: EventJoin, Index: target,
			Size: in.Sizes[target], Latency: in.Latencies[target]},
	}
	se := NewSE(SEConfig{Seed: 5, MaxIters: 1200})
	sol, trace, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 16 {
		t.Fatalf("selection length %d", len(sol.Selected))
	}
	if len(trace) < 3 {
		t.Fatalf("trace too short: %d points", len(trace))
	}
	// The trace must contain a dip: some point after iteration 200 with a
	// lower utility than the pre-event maximum (the leave trimmed the
	// space), unless the departed shard was never part of the best.
	var preMax float64 = math.Inf(-1)
	for _, p := range trace {
		if p.Iteration < 200 && p.Utility > preMax {
			preMax = p.Utility
		}
	}
	if math.IsInf(preMax, -1) {
		t.Fatal("no trace points before the leave event")
	}
}

// TestEngineLeaveRejoinBestInvariant is the invariant behind
// invalidateBest: from the instant a shard leaves until it rejoins, the
// published global best must never reference it — not in any Best()
// snapshot taken between stepping windows — while concurrent readers
// poll the atomically published best from another goroutine (this test
// is a -race probe of the publish path). The rebind trail must show the
// leave and the rejoin in order.
func TestEngineLeaveRejoinBestInvariant(t *testing.T) {
	in := onlineInstance(21, 16)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depart the largest shard: the one most likely pinned inside the
	// pre-event best, so the invalidation path actually fires.
	target := 0
	for i, s := range in.Sizes {
		if s > in.Sizes[target] {
			target = i
		}
	}
	size, latency := in.Sizes[target], in.Latencies[target]

	diag := seobs.New(seobs.Config{})
	eng, err := NewEngine(in.Clone(), SEConfig{Seed: 21, Gamma: 3, MaxIters: 4000, Diag: diag})
	if err != nil {
		t.Fatal(err)
	}
	if eng.trivial != nil {
		t.Fatal("instance too easy: engine born converged")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hammer the lock-free best snapshot while the chain runs
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.BestUtility()
				_ = eng.BestCardinality()
			}
		}
	}()

	eng.StepN(300)
	if err := eng.ApplyEvent(Event{AtIteration: 300, Kind: EventLeave, Index: target}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		eng.StepN(25)
		sol, err := eng.Best()
		if err != nil {
			continue // no feasible best yet after the trim
		}
		if sol.Selected[target] {
			t.Fatalf("global best references shard %d while departed (window %d)", target, i)
		}
	}
	if err := eng.ApplyEvent(Event{AtIteration: 800, Kind: EventJoin, Index: target,
		Size: size, Latency: latency}); err != nil {
		t.Fatal(err)
	}
	eng.StepN(600)
	close(stop)
	wg.Wait()

	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 16 {
		t.Fatalf("selection length %d after rejoin, want 16", len(sol.Selected))
	}
	final := eng.Instance()
	if !final.Feasible(sol.Selected) {
		t.Fatal("infeasible best after leave→rejoin")
	}

	snap := diag.Snapshot()
	if len(snap.Events) != 2 || snap.Events[0].Kind != "leave" || snap.Events[1].Kind != "join" {
		t.Fatalf("rebind trail %+v, want leave then join", snap.Events)
	}
	if snap.Events[0].Index != target || snap.Events[1].Index != target {
		t.Fatalf("rebind trail indexes %+v, want shard %d twice", snap.Events, target)
	}
	if snap.WarmStarts != 0 {
		t.Fatalf("online events miscounted as warm starts: %d", snap.WarmStarts)
	}
}

// TestEngineLeaveRejoinTwice cycles the same shard out and back twice:
// the rejoin path refreshes the departed shard's features in place, so
// the instance must not grow and the second cycle must behave like the
// first.
func TestEngineLeaveRejoinTwice(t *testing.T) {
	in := onlineInstance(22, 12)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(in.Clone(), SEConfig{Seed: 22, Gamma: 2, MaxIters: 4000})
	if err != nil {
		t.Fatal(err)
	}
	const target = 5
	for cycle := 0; cycle < 2; cycle++ {
		eng.StepN(150)
		if err := eng.ApplyEvent(Event{Kind: EventLeave, Index: target}); err != nil {
			t.Fatalf("cycle %d leave: %v", cycle, err)
		}
		eng.StepN(150)
		if sol, err := eng.Best(); err == nil && sol.Selected[target] {
			t.Fatalf("cycle %d: departed shard in best", cycle)
		}
		if err := eng.ApplyEvent(Event{Kind: EventJoin, Index: target,
			Size: in.Sizes[target], Latency: in.Latencies[target]}); err != nil {
			t.Fatalf("cycle %d rejoin: %v", cycle, err)
		}
	}
	eng.StepN(300)
	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 12 {
		t.Fatalf("instance grew across rejoin cycles: %d shards", len(sol.Selected))
	}
	final := eng.Instance()
	if !final.Feasible(sol.Selected) {
		t.Fatal("infeasible best after two leave→rejoin cycles")
	}
}

func TestSolveOnlineLeaveUnknownShard(t *testing.T) {
	in := onlineInstance(6, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	events := []Event{{AtIteration: 10, Kind: EventLeave, Index: 99}}
	se := NewSE(SEConfig{Seed: 6, MaxIters: 100})
	if _, _, err := se.SolveOnline(in.Clone(), events); err == nil {
		t.Fatal("leave of unknown shard accepted")
	}
}

func TestSolveOnlineDoubleLeaveRejected(t *testing.T) {
	in := onlineInstance(7, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{AtIteration: 10, Kind: EventLeave, Index: 2},
		{AtIteration: 20, Kind: EventLeave, Index: 2},
	}
	se := NewSE(SEConfig{Seed: 7, MaxIters: 100})
	if _, _, err := se.SolveOnline(in.Clone(), events); err == nil {
		t.Fatal("double leave accepted")
	}
}

func TestSolveOnlineJoinOfLiveShardRejected(t *testing.T) {
	in := onlineInstance(8, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	events := []Event{{AtIteration: 10, Kind: EventJoin, Index: 2, Size: 100, Latency: 700}}
	se := NewSE(SEConfig{Seed: 8, MaxIters: 100})
	if _, _, err := se.SolveOnline(in.Clone(), events); err == nil {
		t.Fatal("join of live shard accepted")
	}
}

func TestSolveOnlineInvalidEventKind(t *testing.T) {
	in := onlineInstance(9, 10)
	events := []Event{{AtIteration: 10, Kind: EventKind(99)}}
	se := NewSE(SEConfig{Seed: 9, MaxIters: 100})
	if _, _, err := se.SolveOnline(in, events); err == nil {
		t.Fatal("invalid event kind accepted")
	}
}

func TestSolveOnlineInvalidJoinShard(t *testing.T) {
	in := onlineInstance(10, 10)
	events := []Event{{AtIteration: 10, Kind: EventJoin, Index: -1, Size: -5, Latency: 100}}
	se := NewSE(SEConfig{Seed: 10, MaxIters: 100})
	if _, _, err := se.SolveOnline(in, events); err == nil {
		t.Fatal("negative-size join accepted")
	}
}

func TestSolveOnlineConsecutiveJoins(t *testing.T) {
	// The Fig. 9(b)/14 scenario: committees keep joining; the best
	// utility climbs (weakly) across join epochs.
	in := onlineInstance(11, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	var events []Event
	for k := 0; k < 8; k++ {
		events = append(events, Event{
			AtIteration: 100 + 100*k,
			Kind:        EventJoin,
			Index:       -1,
			Size:        1200 + 100*k,
			Latency:     in.DDL - float64(5+k),
		})
	}
	se := NewSE(SEConfig{Seed: 11, MaxIters: 1500})
	sol, trace, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 18 {
		t.Fatalf("selection length %d", len(sol.Selected))
	}
	// Utility after all joins should be at least the pre-join converged
	// value (more candidates can only help in expectation; assert weak
	// improvement of the final best over the iteration-100 best).
	var early, final float64 = math.Inf(-1), math.Inf(-1)
	for _, p := range trace {
		if p.Iteration <= 100 && p.Utility > early {
			early = p.Utility
		}
		if p.Utility > final {
			final = p.Utility
		}
	}
	if final < early {
		t.Fatalf("final best %.1f below pre-join best %.1f", final, early)
	}
}

func TestSolveOnlineEventOrderIndependence(t *testing.T) {
	// Events are sorted by AtIteration, so passing them out of order must
	// not change the outcome.
	in := onlineInstance(12, 12)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	evA := []Event{
		{AtIteration: 300, Kind: EventJoin, Index: -1, Size: 900, Latency: in.DDL - 3},
		{AtIteration: 100, Kind: EventLeave, Index: 1},
	}
	evB := []Event{evA[1], evA[0]}
	s1, _, err := NewSE(SEConfig{Seed: 12, MaxIters: 600}).SolveOnline(in.Clone(), evA)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := NewSE(SEConfig{Seed: 12, MaxIters: 600}).SolveOnline(in.Clone(), evB)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Utility != s2.Utility {
		t.Fatalf("event order changed outcome: %v vs %v", s1.Utility, s2.Utility)
	}
}

func TestEventKindString(t *testing.T) {
	if EventJoin.String() != "join" || EventLeave.String() != "leave" {
		t.Fatal("event kind names wrong")
	}
	if EventKind(42).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestSolveOnlineManyLeavesShrinkToFew(t *testing.T) {
	in := onlineInstance(13, 10)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	in.Nmin = 1
	var events []Event
	for i := 0; i < 7; i++ {
		events = append(events, Event{AtIteration: 50 + 50*i, Kind: EventLeave, Index: i})
	}
	se := NewSE(SEConfig{Seed: 13, MaxIters: 800})
	sol, _, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if sol.Selected[i] {
			t.Fatalf("departed shard %d selected", i)
		}
	}
	if sol.Count == 0 {
		t.Fatal("no shard selected after leaves")
	}
}
