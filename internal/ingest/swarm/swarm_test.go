package swarm

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"mvcom/internal/epoch"
	"mvcom/internal/ingest"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

// smallTrace keeps the synthetic workload light for unit tests.
var smallTrace = txgen.Config{Blocks: 16, MeanTxs: 400, MinTxs: 100, MaxTxs: 1000}

// TestSwarmLedgerMatchesServer cross-checks the fleet-side ledger
// against the server's accounting over the HTTP front end: every
// request the fleet sent is accounted on both sides, and a tight
// per-source rate makes shedding deterministic.
func TestSwarmLedgerMatchesServer(t *testing.T) {
	stream := ingest.NewStream(ingest.StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs: 1 << 20, // no pipeline draining — keep the queue out of the way
		Rate:     200,     // per source; clients offer ~1000 tx/s each
		Burst:    200,
	})
	ts := httptest.NewServer(ingest.NewHandler(stream, 1<<20))
	defer ts.Close()

	fleet, err := Run(context.Background(), Config{
		Clients:  3,
		Trace:    smallTrace,
		Seed:     7,
		Rate:     1000,
		Batch:    50,
		Duration: 400 * time.Millisecond,
	}, Dial(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Errors != 0 {
		t.Fatalf("transport errors: %+v", fleet)
	}
	if fleet.Requests == 0 || fleet.Accepted == 0 {
		t.Fatalf("fleet sent nothing: %+v", fleet)
	}
	if fleet.Shed == 0 {
		t.Fatalf("5x overload shed nothing: %+v", fleet)
	}
	if fleet.Accepted+fleet.Shed != fleet.Requests {
		t.Fatalf("fleet ledger leak: %+v", fleet)
	}
	st := stream.Stats()
	if st.Requests != fleet.Requests {
		t.Fatalf("server saw %d requests, fleet sent %d", st.Requests, fleet.Requests)
	}
	if st.Accepted != fleet.Accepted || st.Shed() != fleet.Shed {
		t.Fatalf("server books %+v disagree with fleet ledger %+v", st, fleet)
	}
}

// TestSwarmDirect drives the in-process target: with admission wide
// open everything is accepted and the transaction ledgers agree.
func TestSwarmDirect(t *testing.T) {
	stream := ingest.NewStream(ingest.StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs: 1 << 20,
	})
	fleet, err := Run(context.Background(), Config{
		Clients:  2,
		Trace:    smallTrace,
		Seed:     3,
		Rate:     2000,
		Batch:    100,
		Duration: 200 * time.Millisecond,
	}, Direct{Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Errors != 0 || fleet.Shed != 0 || fleet.Accepted != fleet.Requests {
		t.Fatalf("open admission still shed: %+v", fleet)
	}
	st := stream.Stats()
	if st.AcceptedTxs != fleet.TxsAccepted {
		t.Fatalf("server accepted %d txs, fleet ledger says %d", st.AcceptedTxs, fleet.TxsAccepted)
	}
}

// TestSwarmCancel: a canceled context stops the fleet promptly even
// with a long window.
func TestSwarmCancel(t *testing.T) {
	stream := ingest.NewStream(ingest.StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs: 1 << 20,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Run(ctx, Config{Clients: 2, Trace: smallTrace, Duration: time.Hour}, Direct{Stream: stream})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("swarm ignored cancellation")
	}
}

// TestSwarmBodiesNeverFallBack: every txs body the fleet sends over HTTP
// is one the ingest recognizer counts without encoding/json, and every
// transaction it counts is admitted.
func TestSwarmBodiesNeverFallBack(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	stream := ingest.NewStream(ingest.StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs: 1 << 20,
		Obs:      obs.NewServeObserver(reg),
	})
	ts := httptest.NewServer(ingest.NewHandler(stream, 1<<20))
	defer ts.Close()
	fleet, err := Run(context.Background(), Config{
		Clients:  2,
		Trace:    smallTrace,
		Seed:     5,
		Rate:     2000,
		Duration: 200 * time.Millisecond,
	}, Dial(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Errors != 0 || fleet.Requests == 0 || fleet.Accepted != fleet.Requests {
		t.Fatalf("open admission over HTTP: %+v", fleet)
	}
	if got := reg.Counter("mvcom_serve_decode_fallback_total", "").Value(); got != 0 {
		t.Fatalf("%d of %d swarm bodies fell back to encoding/json", got, fleet.Requests)
	}
	if st := stream.Stats(); st.AcceptedTxs != fleet.TxsAccepted {
		t.Fatalf("server accepted %d txs, fleet ledger says %d", st.AcceptedTxs, fleet.TxsAccepted)
	}
}
