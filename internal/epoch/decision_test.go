package epoch

import (
	"context"
	"fmt"
	"testing"

	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

// decisionPipelineConfig is a small, fast pipeline for journal tests.
func decisionPipelineConfig(seed int64) Config {
	return Config{
		Committees:    6,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: 40, MeanTxs: 50},
		Seed:          seed,
	}
}

func openTestJournal(t *testing.T, reg *obs.Registry) *decisionlog.Journal {
	t.Helper()
	j, err := decisionlog.Open(decisionlog.Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestDecisionJournalReplaysRunEpochs is the core provenance guarantee:
// every journaled RunEpochs decision replays bit-identically, and a cold
// solver journals no warm start.
func TestDecisionJournalReplaysRunEpochs(t *testing.T) {
	cfg := decisionPipelineConfig(1)
	j := openTestJournal(t, nil)
	cfg.DecisionLog = j
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 7, MaxIters: 1500})}
	results, err := p.RunEpochs(4, sched, 1.0, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := decisionlog.ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(results) {
		t.Fatalf("journaled %d entries for %d epochs", len(entries), len(results))
	}
	for i := range entries {
		e := &entries[i]
		if e.Solver.Kind != decisionlog.KindSE {
			t.Fatalf("entry %d solver kind %q", i, e.Solver.Kind)
		}
		if e.Utility != results[i].Solution.Utility {
			t.Fatalf("entry %d utility %v != result %v", i, e.Utility, results[i].Solution.Utility)
		}
		if len(e.Shards) != len(results[i].Live) {
			t.Fatalf("entry %d shards %d != live %d", i, len(e.Shards), len(results[i].Live))
		}
		if len(e.Marginals) != e.Count {
			t.Fatalf("entry %d marginals %d != count %d", i, len(e.Marginals), e.Count)
		}
		if e.Warm || len(e.WarmPrev) != 0 {
			t.Fatalf("entry %d journaled a warm start (prev %v) for a cold solver", i, e.WarmPrev)
		}
	}
	st := decisionlog.VerifyAll(entries)
	if st.Replayed != len(entries) || !st.Ok() {
		t.Fatalf("replay verification: %+v", st)
	}
}

// TestDecisionJournalReplaysServeWarm proves the warm-start serve path
// journals the exact SolveFrom seed and still replays bit-identically —
// and that a cold solver behind the same warm-capable scheduler journals
// no seed it never used.
func TestDecisionJournalReplaysServeWarm(t *testing.T) {
	for _, warm := range []bool{true, false} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			cfg := decisionPipelineConfig(2)
			j := openTestJournal(t, nil)
			cfg.DecisionLog = j
			p, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sched := SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 3, MaxIters: 1500, WarmStart: warm})}
			var utilities []float64
			stream := &FixedStream{
				N: 5, Params: EpochParams{Alpha: 1, Capacity: 4000, Nmin: 2},
				OnResult: func(r *Result) error {
					utilities = append(utilities, r.Solution.Utility)
					return nil
				},
			}
			if err := p.Serve(context.Background(), sched, stream); err != nil {
				t.Fatal(err)
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			entries, _, err := decisionlog.ReadDir(j.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 5 {
				t.Fatalf("journaled %d entries, want 5", len(entries))
			}
			warmSeen := false
			for i := range entries {
				if entries[i].Warm {
					warmSeen = true
				}
				if !warm && len(entries[i].WarmPrev) != 0 {
					t.Fatalf("entry %d journaled warm-start seed %v for a cold solver", i, entries[i].WarmPrev)
				}
				if entries[i].Utility != utilities[i] {
					t.Fatalf("entry %d utility %v != delivered %v", i, entries[i].Utility, utilities[i])
				}
			}
			if warmSeen != warm {
				t.Fatalf("an entry recorded a warm start: %v, want %v", warmSeen, warm)
			}
			st := decisionlog.VerifyAll(entries)
			if st.Replayed != len(entries) || !st.Ok() {
				t.Fatalf("serve replay verification: %+v", st)
			}
		})
	}
}

// TestDecisionJournalDeferralAttribution: under a tight capacity and a
// MaxDeferrals bound the journal must carry deferral and expiry events
// attributing each expiry to the configured bound.
func TestDecisionJournalDeferralAttribution(t *testing.T) {
	cfg := decisionPipelineConfig(3)
	cfg.MaxDeferrals = 1
	j := openTestJournal(t, nil)
	cfg.DecisionLog = j
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 5, MaxIters: 1000})}
	// Capacity forces refusals every epoch, so deferrals accumulate and
	// the MaxDeferrals=1 bound expires carried shards.
	if _, err := p.RunEpochs(4, sched, 1.0, 2000, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := decisionlog.ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	deferred, expired := 0, 0
	for _, e := range entries {
		for _, d := range e.Deferrals {
			switch d.Kind {
			case decisionlog.Deferred:
				deferred++
			case decisionlog.Expired:
				expired++
				if d.MaxDeferrals != 1 {
					t.Fatalf("expiry not attributed to MaxDeferrals: %+v", d)
				}
				if d.Deferrals <= d.MaxDeferrals {
					t.Fatalf("expiry with deferrals %d <= bound %d", d.Deferrals, d.MaxDeferrals)
				}
			default:
				t.Fatalf("unknown deferral kind %q", d.Kind)
			}
		}
	}
	if deferred == 0 || expired == 0 {
		t.Fatalf("deferral events: %d deferred, %d expired — want both > 0", deferred, expired)
	}
}

// TestDecisionJournalAcceptAllRecorded: the baseline policy is journaled
// by kind and skipped (not failed) by the verifier.
func TestDecisionJournalAcceptAllRecorded(t *testing.T) {
	cfg := decisionPipelineConfig(4)
	j := openTestJournal(t, nil)
	cfg.DecisionLog = j
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunEpochs(2, AcceptAll{}, 1.0, 4000, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := decisionlog.ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journaled %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Solver.Kind != decisionlog.KindAcceptAll {
			t.Fatalf("solver kind %q, want accept-all", e.Solver.Kind)
		}
	}
	st := decisionlog.VerifyAll(entries)
	if st.Skipped != 2 || st.Failed != 0 {
		t.Fatalf("accept-all verify stats: %+v", st)
	}
}

// TestDecisionJournalTraceLink: with an observer attached, each entry's
// TraceID matches an epoch root span in the tracer ring, and the journal
// emits an EvDecision event carrying it.
func TestDecisionJournalTraceLink(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	cfg := decisionPipelineConfig(5)
	cfg.Obs = obs.NewEpochObserver(reg)
	j := openTestJournal(t, reg)
	cfg.DecisionLog = j
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 11, MaxIters: 800})}
	if _, err := p.RunEpochs(2, sched, 1.0, 4000, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := decisionlog.ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	events, _ := reg.Tracer().Snapshot()
	roots := map[uint64]bool{}
	decisions := map[uint64]bool{}
	for _, ev := range events {
		if ev.Type == obs.EvSpanBegin && ev.TraceID != 0 && ev.TraceID == ev.SpanID {
			roots[ev.TraceID] = true
		}
		if ev.Type == obs.EvDecision {
			decisions[ev.TraceID] = true
		}
	}
	for i, e := range entries {
		if e.TraceID == 0 {
			t.Fatalf("entry %d has no TraceID despite tracing", i)
		}
		if !roots[e.TraceID] {
			t.Fatalf("entry %d TraceID %d matches no epoch root span", i, e.TraceID)
		}
		if !decisions[e.TraceID] {
			t.Fatalf("entry %d TraceID %d has no EvDecision event", i, e.TraceID)
		}
	}
}
