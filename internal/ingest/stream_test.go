package ingest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/epoch"
	"mvcom/internal/txgen"
)

// testPipeline builds a Supply-driven pipeline matching the stream's
// committee count.
func testPipeline(t *testing.T, committees int, stream *NetStream, maxDeferrals int, seed int64) *epoch.Pipeline {
	t.Helper()
	p, err := epoch.NewPipeline(epoch.Config{
		Committees:    committees,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: committees * 4, MeanTxs: 800, MinTxs: 100, MaxTxs: 3000},
		Seed:          seed,
		NmaxFraction:  1, // every committee arrives: refusals come only from capacity
		MaxDeferrals:  maxDeferrals,
		Supply:        stream,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkTxs(n int, base uint64) []chain.Transaction {
	txs := make([]chain.Transaction, n)
	for i := range txs {
		txs[i] = chain.Transaction{ID: base + uint64(i), Amount: 1}
	}
	return txs
}

// checkSettled asserts the post-drain accounting: the identity holds,
// nothing is left unsettled, and no epoch tripped the negative-residue
// detector.
func checkSettled(t *testing.T, st Stats) {
	t.Helper()
	if st.AccountingErrors != 0 {
		t.Fatalf("accounting errors: %+v", st)
	}
	if gap := st.AccountingGap(); gap != 0 {
		t.Fatalf("accounting gap %d: %+v", gap, st)
	}
	if u := st.Unsettled(); u != 0 {
		t.Fatalf("unsettled %d after drain: %+v", u, st)
	}
}

// TestNetStreamServesAndSettles is the end-to-end integration: wire
// traffic (tx batches and shard reports) batched into epochs through a
// real pipeline, drained gracefully, every admitted transaction settled
// committed-or-expired, and the final drain epoch delivered before
// Serve returns.
func TestNetStreamServesAndSettles(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees:  4,
		Params:      epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MinBatchTxs: 100,
		MaxWait:     20 * time.Millisecond,
	})
	p := testPipeline(t, 4, stream, 0, 61)

	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(context.Background(), epoch.AcceptAll{}, stream)
	}()

	for i := 0; i < 10; i++ {
		if reason := stream.Submit("client", mkTxs(50, uint64(i)*1000)); reason != "" {
			t.Errorf("batch %d shed: %s", i, reason)
		}
		if reason := stream.SubmitReport("shard", Report{Committee: i % 4, TxCount: 7}); reason != "" {
			t.Errorf("report %d shed: %s", i, reason)
		}
		time.Sleep(2 * time.Millisecond)
	}

	stream.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not end after Drain")
	}

	st := stream.Stats()
	if st.AcceptedTxs != 500 || st.ReportTxs != 70 {
		t.Fatalf("admitted %d txs + %d report txs, want 500 + 70", st.AcceptedTxs, st.ReportTxs)
	}
	if st.CommittedTxs != 570 {
		t.Fatalf("committed %d, want all 570 (unbounded capacity): %+v", st.CommittedTxs, st)
	}
	checkSettled(t, st)
	if st.Epochs < 1 {
		t.Fatal("no epochs delivered")
	}
	if h := p.Chain().Height(); int64(h) != st.Epochs {
		t.Fatalf("chain height %d != epochs %d", h, st.Epochs)
	}
	// Post-drain traffic is shed, not silently dropped.
	if reason := stream.Submit("late", mkTxs(1, 1<<40)); reason != "drain" {
		t.Fatalf("post-drain submit: reason %q, want drain", reason)
	}
}

// TestNetStreamExpiryAccounting drives refusals (capacity below supply)
// with a deferral bound, so some transactions must settle as expired —
// and the books still balance.
func TestNetStreamExpiryAccounting(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees:  4,
		Params:      epoch.EpochParams{Alpha: 1.5, Capacity: 120, Nmin: 1},
		MinBatchTxs: 200,
		MaxWait:     20 * time.Millisecond,
	})
	p := testPipeline(t, 4, stream, 1, 62)

	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(context.Background(), epoch.AcceptAll{}, stream)
	}()

	for i := 0; i < 6; i++ {
		if reason := stream.Submit("client", mkTxs(200, uint64(i)*1000)); reason != "" {
			t.Errorf("batch %d shed: %s", i, reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stream.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not end after Drain")
	}

	st := stream.Stats()
	checkSettled(t, st)
	if st.ExpiredTxs == 0 {
		t.Fatalf("no expirations under sustained over-capacity with MaxDeferrals=1: %+v", st)
	}
	if st.CommittedTxs == 0 {
		t.Fatalf("nothing committed: %+v", st)
	}
	if st.CommittedTxs+st.ExpiredTxs != st.AcceptedTxs {
		t.Fatalf("committed %d + expired %d != accepted %d", st.CommittedTxs, st.ExpiredTxs, st.AcceptedTxs)
	}
}

// TestNetStreamCancelUnblocks: a Serve blocked in NextContext (no
// traffic, long MaxWait) must return context.Canceled promptly on
// cancel — the serve-loop cancellation bugfix exercised through the
// real networked stream.
func TestNetStreamCancelUnblocks(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MaxWait:    time.Hour, // never flush on its own
	})
	p := testPipeline(t, 4, stream, 0, 63)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(ctx, epoch.AcceptAll{}, stream)
	}()
	time.Sleep(20 * time.Millisecond) // let Serve reach the blocking wait
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve stayed blocked after cancel")
	}
}

// TestNetStreamQuietEpochs: with MaxWait elapsing and no traffic, the
// stream still runs (quiet) epochs, so the chain keeps growing and
// MaxEpochs bounds the run.
func TestNetStreamQuietEpochs(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MaxWait:    time.Millisecond,
		MaxEpochs:  3,
	})
	p := testPipeline(t, 4, stream, 0, 64)
	if err := p.Serve(context.Background(), epoch.AcceptAll{}, stream); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := stream.Stats()
	if st.Epochs != 3 {
		t.Fatalf("epochs = %d, want 3", st.Epochs)
	}
	if h := p.Chain().Height(); h != 3 {
		t.Fatalf("chain height = %d, want 3 (quiet epochs still commit empty blocks)", h)
	}
	checkSettled(t, st)
}

// TestNetStreamInvalidAndWatermark covers the direct-submit admission
// branches: empty batches and out-of-range reports are invalid, and the
// queue watermark sheds whole batches until a flush makes room.
func TestNetStreamInvalidAndWatermark(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 2,
		QueueTxs:   100,
	})
	if reason := stream.Submit("a", nil); reason != "invalid" {
		t.Fatalf("empty batch: %q", reason)
	}
	for _, rep := range []Report{
		{Committee: -1, TxCount: 1},
		{Committee: 2, TxCount: 1},
		{Committee: 0, TxCount: -1},
		{Committee: 0, TxCount: 1, Latency: -2},
	} {
		if reason := stream.SubmitReport("a", rep); reason != "invalid" {
			t.Fatalf("report %+v: reason %q, want invalid", rep, reason)
		}
	}
	for _, step := range []struct {
		name       string
		flush      bool // flush the queue into an epoch before submitting
		txs        int
		want       string
		wantQueued int64
	}{
		{name: "under the mark", txs: 60, wantQueued: 60},
		{name: "exactly at the mark", txs: 40, wantQueued: 100},
		{name: "one over sheds the whole batch", txs: 1, want: "queue", wantQueued: 100},
		{name: "room comes back after a flush", flush: true, txs: 100, wantQueued: 100},
		{name: "full again", txs: 1, want: "queue", wantQueued: 100},
		{name: "a batch larger than the mark never fits", flush: true, txs: 101, want: "queue", wantQueued: 0},
	} {
		if step.flush {
			if _, ok := stream.NextContext(context.Background(), 0); !ok {
				t.Fatalf("%s: NextContext ended the stream", step.name)
			}
		}
		if reason := stream.Submit("a", mkTxs(step.txs, 0)); reason != step.want {
			t.Fatalf("%s: reason %q, want %q", step.name, reason, step.want)
		}
		if q := stream.Stats().QueueTxs; q != step.wantQueued {
			t.Fatalf("%s: QueueTxs %d, want %d", step.name, q, step.wantQueued)
		}
	}
	st := stream.Stats()
	if st.ShedInvalid != 5 || st.ShedQueue != 3 || st.AcceptedTxs != 200 || st.AssignedTxs != 200 {
		t.Fatalf("stats: %+v", st)
	}
	if gap := st.AccountingGap(); gap != 0 {
		t.Fatalf("accounting gap %d: %+v", gap, st)
	}
}

// TestNetStreamWatermarkRacers: concurrent producers racing for the
// last room under the watermark never overshoot it, and every refused
// batch is counted.
func TestNetStreamWatermarkRacers(t *testing.T) {
	stream := NewStream(StreamConfig{Committees: 2, QueueTxs: 55}) // room for 5 batches of 10
	batch := mkTxs(10, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				stream.Submit("a", batch)
			}
		}()
	}
	wg.Wait()
	st := stream.Stats()
	if st.Accepted != 5 || st.QueueTxs != 50 || st.ShedQueue != 155 {
		t.Fatalf("want 5 admitted batches, 50 queued, 155 shed: %+v", st)
	}
}

// TestNetStreamProducersDuringServe runs producers against a serving
// pipeline, so admission races the flush (run under -race). After the
// drain the books settle and every admitted batch is accounted.
func TestNetStreamProducersDuringServe(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees:  4,
		Params:      epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs:    400,
		MinBatchTxs: 50,
		MaxWait:     2 * time.Millisecond,
	})
	p := testPipeline(t, 4, stream, 0, 66)
	errc := make(chan error, 1)
	go func() {
		errc <- p.Serve(context.Background(), epoch.AcceptAll{}, stream)
	}()

	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if stream.Submit("p", mkTxs(10, uint64(g*1000+i*10))) == "" {
					admitted.Add(10)
				}
			}
		}(g)
	}
	wg.Wait()
	stream.Drain()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not end after Drain")
	}
	st := stream.Stats()
	checkSettled(t, st)
	if st.AcceptedTxs != admitted.Load() || st.CommittedTxs != st.AcceptedTxs {
		t.Fatalf("admitted %d by the producers' count: %+v", admitted.Load(), st)
	}
}

// TestNetStreamAdmissionAllocs gates the per-transaction cost of the
// queue: one epoch of admission (200 batches of 100) plus its flush
// allocates a constant few objects, none per transaction.
func TestNetStreamAdmissionAllocs(t *testing.T) {
	stream := NewStream(StreamConfig{Committees: 8, QueueTxs: 20000})
	batch := mkTxs(100, 0)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 200; i++ {
			if reason := stream.Submit("a", batch); reason != "" {
				t.Fatalf("batch %d shed: %s", i, reason)
			}
		}
		if _, ok := stream.NextContext(ctx, 0); !ok {
			t.Fatal("NextContext ended the stream")
		}
	})
	if allocs > 4 {
		t.Fatalf("one epoch of admission and flush made %.0f allocations, want <= 4", allocs)
	}
}

// TestNetStreamReportDeclarationCap: a committee's pending declared
// count cannot exceed the block capacity, so declarations can neither
// overflow the books nor name a shard no block could hold.
func TestNetStreamReportDeclarationCap(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 2,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
	})
	for _, step := range []struct {
		rep  Report
		want string
	}{
		{Report{Committee: 0, TxCount: 1 << 62}, "invalid"},
		{Report{Committee: 0, TxCount: 1 << 62}, "invalid"},
		{Report{Committee: 0, TxCount: 600}, ""},
		{Report{Committee: 0, TxCount: 401}, "invalid"},
		{Report{Committee: 0, TxCount: 400}, ""},  // exactly at capacity
		{Report{Committee: 1, TxCount: 1000}, ""}, // the cap is per committee
	} {
		if reason := stream.SubmitReport("shard", step.rep); reason != step.want {
			t.Fatalf("report %+v: reason %q, want %q", step.rep, reason, step.want)
		}
	}
	st := stream.Stats()
	if st.ReportTxs != 2000 || st.PendingReportTxs != 2000 || st.ShedInvalid != 3 {
		t.Fatalf("stats: %+v", st)
	}
	// A flush empties the pending declarations, so the next epoch's
	// reports get the whole capacity again.
	if _, ok := stream.NextContext(context.Background(), 0); !ok {
		t.Fatal("NextContext ended the stream")
	}
	if reason := stream.SubmitReport("shard", Report{Committee: 0, TxCount: 1000}); reason != "" {
		t.Fatalf("report after flush: %q", reason)
	}
	if gap := stream.Stats().AccountingGap(); gap != 0 {
		t.Fatalf("accounting gap %d", gap)
	}
}
