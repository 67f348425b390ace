package epoch

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/seobs"
)

// TestServeWarmThreading checks that each epoch's decision is threaded
// into the next as a warm start when the scheduler is warm-capable —
// within one Serve loop and across consecutive RunEpoch calls alike: the
// first epoch solves cold, every later epoch's diagnostics show exactly
// one warm-start event (Bind resets the diag per solve, so each epoch's
// snapshot reflects that epoch only).
func TestServeWarmThreading(t *testing.T) {
	const epochs = 4
	for _, driver := range []string{"Serve", "RunEpoch"} {
		t.Run(driver, func(t *testing.T) {
			p, err := NewPipeline(fastConfig(6, 43))
			if err != nil {
				t.Fatal(err)
			}
			capacity := p.Trace().TotalTxs() / 2
			params := EpochParams{Alpha: 1.5, Capacity: capacity, Nmin: 1}
			diag := seobs.New(seobs.Config{})
			sched := SolverScheduler{Solver: core.NewSE(core.SEConfig{
				Seed: 11, MaxIters: 600, WarmStart: true, Diag: diag,
			})}

			var warmStarts []int
			record := func(res *Result) error {
				warmStarts = append(warmStarts, diag.Snapshot().WarmStarts)
				if res.Solution.Load > capacity {
					return fmt.Errorf("epoch %d violated capacity", res.Epoch)
				}
				return nil
			}
			if driver == "Serve" {
				stream := &FixedStream{N: epochs, Params: params, OnResult: record}
				if err := p.Serve(context.Background(), sched, stream); err != nil {
					t.Fatal(err)
				}
			} else {
				for i := 0; i < epochs; i++ {
					res, err := p.RunEpoch(sched, params.Alpha, params.Capacity, params.Nmin)
					if err != nil {
						t.Fatal(err)
					}
					if err := record(res); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(warmStarts) != epochs {
				t.Fatalf("served %d epochs, want %d", len(warmStarts), epochs)
			}
			if warmStarts[0] != 0 {
				t.Fatalf("epoch 1 warm-started (%d events) with no previous decision", warmStarts[0])
			}
			for i, n := range warmStarts[1:] {
				if n != 1 {
					t.Fatalf("epoch %d recorded %d warm starts, want 1", i+2, n)
				}
			}
		})
	}
}

// TestServeStopsOnContextAndDeliverError covers the loop's exits: a
// canceled context surfaces ctx.Err before the next epoch, a Deliver
// error aborts the loop, and guard clauses reject nil collaborators and
// re-entrant Serve and RunEpoch calls.
func TestServeStopsOnContextAndDeliverError(t *testing.T) {
	p, err := NewPipeline(fastConfig(4, 44))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	params := EpochParams{Alpha: 1.5, Capacity: capacity, Nmin: 1}
	sched := SolverScheduler{Solver: baseline.Greedy{}}

	ctx, cancel := context.WithCancel(context.Background())
	served := 0
	stream := &FixedStream{N: 10, Params: params, OnResult: func(res *Result) error {
		served++
		if served == 2 {
			cancel()
		}
		// Re-entrant Serve must be refused while a session is active.
		if err := p.Serve(context.Background(), sched, &FixedStream{N: 1, Params: params}); !errors.Is(err, ErrBadConfig) {
			return fmt.Errorf("re-entrant Serve: err = %v, want ErrBadConfig", err)
		}
		if _, err := p.RunEpoch(sched, params.Alpha, params.Capacity, params.Nmin); !errors.Is(err, ErrBadConfig) {
			return fmt.Errorf("re-entrant RunEpoch: err = %v, want ErrBadConfig", err)
		}
		return nil
	}}
	if err := p.Serve(ctx, sched, stream); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Serve: err = %v, want context.Canceled", err)
	}
	if served != 2 {
		t.Fatalf("served %d epochs after cancel at 2", served)
	}
	if p.serving {
		t.Fatal("serving flag leaked past canceled Serve")
	}

	boom := errors.New("downstream full")
	stream2 := &FixedStream{N: 10, Params: params, OnResult: func(*Result) error { return boom }}
	if err := p.Serve(context.Background(), sched, stream2); !errors.Is(err, boom) {
		t.Fatalf("Deliver error: err = %v, want %v", err, boom)
	}

	if err := p.Serve(context.Background(), nil, stream2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil scheduler: err = %v", err)
	}
	if err := p.Serve(context.Background(), sched, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil stream: err = %v", err)
	}
}

// TestMaxDeferralsBoundsBacklog pins the deferral-expiry knob: under
// sustained capacity pressure (capacity below the per-epoch supply, so
// refusals are guaranteed every epoch) an unbounded pipeline's deferral
// backlog grows with epoch count, while MaxDeferrals holds it — and the
// Deferrals counters — inside the configured bound.
func TestMaxDeferralsBoundsBacklog(t *testing.T) {
	run := func(maxDeferrals, epochs int) (*Pipeline, []*Result) {
		cfg := fastConfig(6, 46)
		cfg.MaxDeferrals = maxDeferrals
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		capacity := p.Trace().TotalTxs() / 3
		results, err := p.RunEpochs(epochs, AcceptAll{}, 1.5, capacity, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p, results
	}

	unbounded, _ := run(0, 12)
	bounded, results := run(2, 12)
	if len(unbounded.deferred) <= len(bounded.deferred) {
		t.Fatalf("expiry did not shrink the backlog: unbounded %d, bounded %d",
			len(unbounded.deferred), len(bounded.deferred))
	}
	// A shard may be re-queued at most MaxDeferrals times, so the backlog
	// holds at most MaxDeferrals generations of refused committees.
	if max := 2 * bounded.cfg.Committees; len(bounded.deferred) > max {
		t.Fatalf("bounded backlog %d exceeds %d", len(bounded.deferred), max)
	}
	for _, res := range results {
		for _, rep := range res.Deferred {
			if rep.Deferrals < 1 || rep.Deferrals > 2 {
				t.Fatalf("carried shard with deferral count %d outside (0, 2]", rep.Deferrals)
			}
		}
	}
}

// TestServeScratchReuseSteadyState runs a longer pool-driven serve loop
// with fault pressure absent and checks the scratch buffers stabilize:
// after a warm-up epoch the per-epoch report/instance/selection buffers
// must not be reallocated (capacity identity), which is the mechanism
// behind the soak harness's flat heap.
func TestServeScratchReuseSteadyState(t *testing.T) {
	cfg := fastConfig(6, 45)
	// Nmax = 1 lets every committee into the admission window, so with
	// full capacity the deferral backlog stays small and the live set —
	// hence the scratch demand — reaches a fixed point.
	cfg.NmaxFraction = 1
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Full capacity: every shard fits, so the deferral backlog stays
	// empty and the per-epoch buffer demand is constant.
	capacity := p.Trace().TotalTxs()

	type caps struct{ reports, sizes, sel int }
	var seen []caps
	stream := &FixedStream{
		N:      40,
		Params: EpochParams{Alpha: 1.5, Capacity: capacity, Nmin: 1},
		OnResult: func(res *Result) error {
			seen = append(seen, caps{cap(p.reports), cap(p.sizes), cap(p.sel)})
			return nil
		},
	}
	sched := SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 5, MaxIters: 400, WarmStart: true})}
	if err := p.Serve(context.Background(), sched, stream); err != nil {
		t.Fatal(err)
	}
	// Scratch buffers only grow to the live-set high-water mark — never
	// shrink-and-realloc — and stop changing once it is reached.
	for i := 1; i < len(seen); i++ {
		prev, cur := seen[i-1], seen[i]
		if cur.reports < prev.reports || cur.sizes < prev.sizes || cur.sel < prev.sel {
			t.Fatalf("scratch buffer shrank at epoch %d: %+v after %+v", i+1, cur, prev)
		}
	}
	// The live set is bounded by fresh + deferred committees, so the
	// high-water mark is too: no unbounded buffer growth with epoch count.
	last := seen[len(seen)-1]
	if bound := 2 * cfg.Committees; last.reports > bound || last.sizes > bound || last.sel > bound {
		t.Fatalf("scratch high-water mark %+v exceeds the live-set bound %d", last, bound)
	}
	tail := seen[len(seen)-10:]
	for i := 1; i < len(tail); i++ {
		if tail[i] != tail[0] {
			t.Fatalf("scratch buffers still reallocating in steady state: %+v", seen)
		}
	}
}
