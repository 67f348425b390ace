package ingest

import (
	"context"
	"errors"
	"math/rand/v2"
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

// TestNetStreamServesAndSettles is the end-to-end integration: tx
// batches batched into epochs through a real pipeline, drained
// gracefully, every admitted transaction settled committed-or-expired,
// and the final drain epoch delivered before Serve returns.
func TestNetStreamServesAndSettles(t *testing.T) {
	stream := NewStream(StreamConfig{
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
	if st.AcceptedTxs != 500 {
		t.Fatalf("admitted %d txs, want 500", st.AcceptedTxs)
	}
	if st.CommittedTxs != 500 {
		t.Fatalf("committed %d, want all 500 (unbounded capacity): %+v", st.CommittedTxs, st)
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
		Params:  epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MaxWait: time.Hour, // never flush on its own
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
		Params:    epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		MaxWait:   time.Millisecond,
		MaxEpochs: 3,
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
// branches: empty batches are invalid, and the queue watermark sheds
// whole batches until a flush makes room.
func TestNetStreamInvalidAndWatermark(t *testing.T) {
	stream := NewStream(StreamConfig{
		QueueTxs: 100,
	})
	if reason := stream.Submit("a", nil); reason != "invalid" {
		t.Fatalf("empty batch: %q", reason)
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
	if st.ShedInvalid != 1 || st.ShedQueue != 3 || st.AcceptedTxs != 200 || st.AssignedTxs != 200 {
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
	stream := NewStream(StreamConfig{QueueTxs: 55}) // room for 5 batches of 10
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
	stream := NewStream(StreamConfig{QueueTxs: 20000})
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

// TestDrainWaitsForAdmissionInFlight pins the drain race: a producer
// passes its drain check, the plane drains while the queue and the
// backlog are empty, and only then does the producer add its batch. The
// drain must not end the stream before that batch lands, and must
// settle it after.
func TestDrainWaitsForAdmissionInFlight(t *testing.T) {
	stream := NewStream(StreamConfig{
		Params:  epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		MaxWait: time.Millisecond,
	})
	stream.admitting.Add(1) // SubmitCount past its drain check
	stream.Drain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := stream.NextContext(ctx, 1); ok || stream.finished {
		t.Fatalf("drain ended the stream with an admission in flight (ok %v, finished %v)", ok, stream.finished)
	}
	if reason := stream.admit("a", 10); reason != "" {
		t.Fatalf("admission shed: %s", reason)
	}
	stream.admitting.Add(-1)

	p := testPipeline(t, 4, stream, 1, 7)
	if err := p.Serve(context.Background(), epoch.AcceptAll{}, stream); err != nil {
		t.Fatal(err)
	}
	st := stream.Stats()
	if st.AcceptedTxs != 10 {
		t.Fatalf("accepted %d txs, want 10: %+v", st.AcceptedTxs, st)
	}
	checkSettled(t, st)
}

// TestNetStreamBooksProperty: whatever the interleaving of admission
// with the epoch loop, the books hold once a run is quiescent. Each
// seed drives 1–3 sources of random SubmitCount calls (valid,
// zero-count and over-watermark) into a rate-limited plane whose block
// is smaller than its supply, so shards defer and, at MaxDeferrals 1,
// expire. While the sources still run, even seeds drain and odd seeds
// cancel the context; a drain must still settle every admission.
func TestNetStreamBooksProperty(t *testing.T) {
	const queueTxs = 300
	var expired, shedRate, shedQueue, shedInvalid int64
	for seed := int64(1); seed <= 40; seed++ {
		drain := seed%2 == 0
		stream := NewStream(StreamConfig{
			Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 60, Nmin: 1},
			QueueTxs: queueTxs,
			Rate:     5000,
			Burst:    150,
			MaxWait:  time.Millisecond,
		})
		p := testPipeline(t, 4, stream, 1, seed)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- p.Serve(ctx, epoch.AcceptAll{}, stream) }()

		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		sources := 1 + rng.IntN(3)
		stopAt := rng.IntN(40)
		var wg sync.WaitGroup
		for g := 0; g < sources; g++ {
			wg.Add(1)
			go func(g int, rng *rand.Rand) {
				defer wg.Done()
				src := string(rune('a' + g))
				for op := 0; op < 40; op++ {
					if g == 0 && op == stopAt {
						if drain {
							stream.Drain()
						} else {
							cancel()
						}
					}
					var n int
					switch r := rng.IntN(10); {
					case r == 0:
						n = -rng.IntN(2) // zero or negative: invalid
					case r == 1:
						n = queueTxs + 1 + rng.IntN(100) // never fits
					default:
						n = 1 + rng.IntN(100)
					}
					stream.SubmitCount(src, n)
					if d := rng.IntN(150); d < 100 {
						time.Sleep(time.Duration(d) * time.Microsecond)
					}
				}
			}(g, rand.New(rand.NewPCG(uint64(seed), uint64(g+1))))
		}
		wg.Wait()
		var err error
		select {
		case err = <-errc:
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: Serve did not return", seed)
		}
		cancel()

		st := stream.Stats()
		if drain {
			if err != nil {
				t.Fatalf("seed %d: Serve after drain: %v", seed, err)
			}
			if u := st.Unsettled(); u != 0 {
				t.Fatalf("seed %d: %d unsettled after drain: %+v", seed, u, st)
			}
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: Serve after cancel: %v", seed, err)
		}
		if st.Accepted+st.Shed() != st.Requests {
			t.Fatalf("seed %d: request accounting leak: %+v", seed, st)
		}
		if gap := st.AccountingGap(); gap != 0 {
			t.Fatalf("seed %d: accounting gap %d: %+v", seed, gap, st)
		}
		if st.AccountingErrors != 0 {
			t.Fatalf("seed %d: accounting errors: %+v", seed, st)
		}
		expired += st.ExpiredTxs
		shedRate += st.ShedRate
		shedQueue += st.ShedQueue
		shedInvalid += st.ShedInvalid
	}
	// The seeds must reach every path the books cover.
	if expired == 0 || shedRate == 0 || shedQueue == 0 || shedInvalid == 0 {
		t.Fatalf("seeds missed a path: expired %d, shed rate %d, queue %d, invalid %d",
			expired, shedRate, shedQueue, shedInvalid)
	}
}
