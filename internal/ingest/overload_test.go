package ingest

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"mvcom/internal/epoch"
)

// overloadSeconds returns the sustained-overload duration: 2s by
// default, extendable via MVCOM_INGEST_OVERLOAD_SECONDS for soak runs.
func overloadSeconds() time.Duration {
	if v := os.Getenv("MVCOM_INGEST_OVERLOAD_SECONDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 2 * time.Second
}

// TestOverloadBoundedHeap is the soak-style overload gate in miniature:
// clients offer 2× the admission capacity for a sustained window while
// a real pipeline serves. The queue must hold at its watermark (shed,
// not grow), the post-GC heap trend must stay flat, and after a
// graceful drain every admitted transaction must be settled and every
// request accounted accepted-or-shed.
func TestOverloadBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short")
	}
	const (
		ratePerSource = 2000 // txs/s admitted per source
		batch         = 100
		clients       = 4
		queueCap      = 4000
	)
	stream := NewStream(StreamConfig{
		Committees:  4,
		Params:      epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs:    queueCap,
		Rate:        ratePerSource,
		Burst:       2 * batch,
		MinBatchTxs: 500,
		MaxWait:     20 * time.Millisecond,
	})
	p := testPipeline(t, 4, stream, 2, 65)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- p.Serve(ctx, epoch.AcceptAll{}, stream)
	}()

	duration := overloadSeconds()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Each client offers 2× its admitted rate: half its traffic must
	// shed by construction.
	interval := time.Duration(float64(batch) / (2 * ratePerSource) * float64(time.Second))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := string(rune('a' + c))
			tick := time.NewTicker(interval)
			defer tick.Stop()
			id := uint64(c) << 32
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					stream.Submit(src, mkTxs(batch, id))
					id += batch
				}
			}
		}(c)
	}

	// Post-GC heap windows while the overload runs.
	var heaps []uint64
	var ms runtime.MemStats
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		time.Sleep(duration / 10)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, ms.HeapAlloc)
		if n := stream.Stats().QueueTxs; n > queueCap {
			t.Fatalf("queue grew past its watermark: %d > %d", n, queueCap)
		}
	}
	close(stop)
	wg.Wait()

	stream.Drain()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not end after Drain")
	}

	st := stream.Stats()
	checkSettled(t, st)
	if st.Accepted+st.Reports+st.Shed() != st.Requests {
		t.Fatalf("request accounting leak: %+v", st)
	}
	if st.ShedRate == 0 {
		t.Fatalf("2x overload shed nothing: %+v", st)
	}
	if st.CommittedTxs == 0 {
		t.Fatalf("nothing committed under overload: %+v", st)
	}
	// Flat post-GC heap trend: the minimum of the late windows must not
	// sit meaningfully above the minimum of the early windows.
	if len(heaps) >= 4 {
		min := func(xs []uint64) uint64 {
			m := xs[0]
			for _, x := range xs[1:] {
				if x < m {
					m = x
				}
			}
			return m
		}
		early := min(heaps[:len(heaps)/2])
		late := min(heaps[len(heaps)/2:])
		const slack = 8 << 20 // generous for a short window; soak runs tighten by duration
		if late > early+slack {
			t.Fatalf("post-GC heap grew under sustained overload: early min %d, late min %d", early, late)
		}
	}
}
