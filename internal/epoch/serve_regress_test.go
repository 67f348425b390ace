package epoch

import (
	"context"
	"errors"
	"testing"
	"time"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
)

// probeSched wraps a warm-capable scheduler and records, per epoch,
// whether Serve took the cold or the warm path — and can be told to
// return an empty selection (no decision) on chosen epochs.
type probeSched struct {
	inner SolverScheduler
	empty map[int]bool // 1-based call number -> return empty selection
	calls []string     // "cold" or "warm", per epoch
}

func (s *probeSched) Schedule(in core.Instance) (core.Solution, error) {
	s.calls = append(s.calls, "cold")
	return s.solve(in)
}

func (s *probeSched) ScheduleFrom(in core.Instance, prev core.Solution) (core.Solution, error) {
	s.calls = append(s.calls, "warm")
	return s.solve(in)
}

func (s *probeSched) solve(in core.Instance) (core.Solution, error) {
	if s.empty[len(s.calls)] {
		return core.NewSolution(&in, make([]bool, in.NumShards())), nil
	}
	return s.inner.Schedule(in)
}

// TestServeQuietEpochKeepsWarmState is the regression test for the
// recordPermitted wipe bug: an epoch whose decision selects nothing (a
// quiet epoch) must keep the previous permitted set, so the next busy
// epoch still warm-starts. Pre-fix, recordPermitted cleared the set and
// reset havePrev, cold-starting epoch 3.
func TestServeQuietEpochKeepsWarmState(t *testing.T) {
	p, err := NewPipeline(fastConfig(6, 47))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	sched := &probeSched{
		inner: SolverScheduler{Solver: baseline.Greedy{}},
		empty: map[int]bool{2: true}, // epoch 2 decides nothing
	}
	stream := &FixedStream{N: 3, Params: EpochParams{Alpha: 1.5, Capacity: capacity, Nmin: 1}}
	if err := p.Serve(context.Background(), sched, stream); err != nil {
		t.Fatal(err)
	}
	want := []string{"cold", "warm", "warm"}
	if len(sched.calls) != len(want) {
		t.Fatalf("scheduled %d epochs, want %d", len(sched.calls), len(want))
	}
	for i, w := range want {
		if sched.calls[i] != w {
			t.Fatalf("epoch %d took the %s path, want %s (calls: %v)", i+1, sched.calls[i], w, sched.calls)
		}
	}
}

// blockingStream is an EpochStream whose NextContext blocks like a
// networked stream waiting for traffic that never comes. It deliberately
// returns a clean end (ok = false) after cancellation, pinning that
// Serve reports ctx.Err() rather than masking the cancel as a stream
// end.
type blockingStream struct {
	started chan struct{}
}

func (s *blockingStream) NextContext(ctx context.Context, epoch int) (EpochParams, bool) {
	close(s.started)
	<-ctx.Done()
	return EpochParams{}, false
}

func (s *blockingStream) Deliver(*Result) error { return nil }

// TestServeBlockedStreamUnblocksOnCancel is the regression test for the
// cancellation bug: pre-fix, Serve only checked ctx.Err() between
// epochs, so a Serve blocked inside stream.Next never observed a
// cancel. With NextContext threading the context through, cancellation
// unblocks the wait and surfaces as context.Canceled.
func TestServeBlockedStreamUnblocksOnCancel(t *testing.T) {
	p, err := NewPipeline(fastConfig(4, 48))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := &blockingStream{started: make(chan struct{})}
	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(ctx, SolverScheduler{Solver: baseline.Greedy{}}, stream)
	}()

	select {
	case <-stream.started:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never reached the stream")
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve stayed blocked in stream.NextContext after cancel")
	}
}

// countSupply is a ShardSupply that hands out a fixed per-epoch tx count
// round-robin and records what it saw.
type countSupply struct {
	perEpoch  []int // tx totals by epoch index (0-based); 0 = quiet
	sawDirty  bool  // a fresh report arrived with TxCount != 0
	fillCalls int
}

func (s *countSupply) Fill(epoch int, reports []CommitteeReport) {
	s.fillCalls++
	for i := range reports {
		if reports[i].TxCount != 0 {
			s.sawDirty = true
		}
	}
	if epoch-1 >= len(s.perEpoch) || len(reports) == 0 {
		return
	}
	total := s.perEpoch[epoch-1]
	base, rem := total/len(reports), total%len(reports)
	for i := range reports {
		reports[i].TxCount = base
		if i < rem {
			reports[i].TxCount++
		}
	}
}

// TestShardSupplyFeedsEpochs covers the external-supply hook the serving
// plane uses: Fill sees zeroed fresh reports, its counts become the
// epoch's shard sizes, and a zero-supply epoch commits an empty block
// via the quiet-window path.
func TestShardSupplyFeedsEpochs(t *testing.T) {
	cfg := fastConfig(4, 49)
	// Every committee arrives (no stragglers), so nothing defers and the
	// zero-supply epoch is genuinely quiet.
	cfg.NmaxFraction = 1
	supply := &countSupply{perEpoch: []int{400, 0, 300}}
	cfg.Supply = supply
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// AcceptAll permits every arrived shard that fits, so with full
	// capacity nothing defers and each epoch's live total is exactly the
	// supplied count.
	sched := AcceptAll{}
	var totals []int
	stream := &FixedStream{
		N:      3,
		Params: EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		OnResult: func(res *Result) error {
			total := 0
			for _, ri := range res.Live {
				total += res.Reports[ri].TxCount
			}
			totals = append(totals, total)
			return nil
		},
	}
	if err := p.Serve(context.Background(), sched, stream); err != nil {
		t.Fatal(err)
	}
	if supply.fillCalls != 3 {
		t.Fatalf("Fill called %d times, want 3", supply.fillCalls)
	}
	if supply.sawDirty {
		t.Fatal("Fill saw a fresh report with a non-zero TxCount")
	}
	want := []int{400, 0, 300}
	for i, w := range want {
		if totals[i] != w {
			t.Fatalf("epoch %d live tx total = %d, want %d (totals: %v)", i+1, totals[i], w, totals)
		}
	}
	// The quiet epoch still committed a block (empty), so the chain grew
	// every epoch.
	if h := p.Chain().Height(); h != 3 {
		t.Fatalf("chain height = %d, want 3", h)
	}
}
