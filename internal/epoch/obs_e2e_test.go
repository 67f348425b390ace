package epoch

import (
	"strings"
	"testing"

	"mvcom/internal/core"
	"mvcom/internal/obs"
)

// TestEpochObservabilityEndToEnd runs the full pipeline for several
// epochs with the epoch observer attached and checks that every layer of
// the diagnostic stream is populated: phase-latency histograms, the
// shard-age histogram, the cumulative-age gauge, the scheduling-output
// counters, and the phase trace events.
func TestEpochObservabilityEndToEnd(t *testing.T) {
	const epochs = 3
	cfg := fastConfig(8, 7)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	cfg.Obs = obs.NewEpochObserver(reg)

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2 // binding: real scheduling happens
	results, err := p.RunEpochs(epochs, seScheduler(7), 1.5, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != epochs {
		t.Fatalf("epochs run = %d, want %d", len(results), epochs)
	}

	o := cfg.Obs
	if got := o.Epochs.Value(); got != epochs {
		t.Fatalf("epoch counter = %d, want %d", got, epochs)
	}
	// One two-phase observation per fresh committee per epoch at least;
	// formation and two-phase move together.
	if o.Formation.Count() == 0 || o.TwoPhase.Count() == 0 || o.Consensus.Count() == 0 {
		t.Fatalf("phase-latency histograms empty: formation=%d consensus=%d twophase=%d",
			o.Formation.Count(), o.Consensus.Count(), o.TwoPhase.Count())
	}
	if o.Formation.Count() < int64(epochs*cfg.Committees) {
		t.Fatalf("formation observations = %d, want >= %d", o.Formation.Count(), epochs*cfg.Committees)
	}
	// Every permitted shard contributes one age observation; the latest
	// epoch's cumulative age matches the paper's Π_i accounting.
	if o.ShardAge.Count() == 0 {
		t.Fatal("shard-age histogram empty after permitted shards")
	}
	var wantAge float64
	last := results[len(results)-1]
	for i, on := range last.Solution.Selected {
		if on {
			wantAge += last.Instance.DDL - last.Instance.Latencies[i]
		}
	}
	if got := o.CumulativeAge.Value(); got != wantAge {
		t.Fatalf("cumulative-age gauge = %v, want latest epoch's %v", got, wantAge)
	}
	if o.PermittedTxs.Value() == 0 || o.PermittedCommittees.Value() == 0 {
		t.Fatalf("scheduling-output counters empty: txs=%d committees=%d",
			o.PermittedTxs.Value(), o.PermittedCommittees.Value())
	}

	// The trace must carry span and shard-age events.
	events, _ := reg.Tracer().Snapshot()
	var spans, ages int
	for _, e := range events {
		switch e.Type {
		case obs.EvSpanBegin:
			spans++
		case obs.EvShardAge:
			ages++
		}
	}
	if spans == 0 || ages == 0 {
		t.Fatalf("trace events missing: span=%d shard-age=%d", spans, ages)
	}

	// End-to-end latency histogram: one observation per committed epoch.
	if got := o.E2E.Count(); got != epochs {
		t.Fatalf("e2e histogram count = %d, want %d", got, epochs)
	}

	// Per-phase wall-clock gauges must be exported for every pipeline
	// phase.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"consensus", "collect", "solve", "commit"} {
		if !strings.Contains(prom.String(), `mvcom_epoch_phase_seconds{phase="`+phase+`"}`) {
			t.Fatalf("missing phase gauge for %q in prometheus export", phase)
		}
	}

	// Span stream: every epoch root must carry the four phase children
	// and the reconstruction must have no orphans or incomplete spans.
	tl := obs.BuildTimeline(events)
	if len(tl.Orphans) != 0 {
		t.Fatalf("timeline has %d orphan spans", len(tl.Orphans))
	}
	epochRoots := 0
	for _, root := range tl.Roots {
		if root.Name != "epoch" {
			continue
		}
		epochRoots++
		if root.Incomplete {
			t.Fatalf("epoch root span %#x incomplete", root.SpanID)
		}
		seen := map[string]bool{}
		for _, c := range root.Children {
			seen[c.Name] = true
			if c.Incomplete {
				t.Fatalf("phase span %q under epoch %#x incomplete", c.Name, root.SpanID)
			}
		}
		for _, phase := range []string{"consensus", "collect", "solve", "commit"} {
			if !seen[phase] {
				t.Fatalf("epoch root %#x missing %q child span (have %v)", root.SpanID, phase, seen)
			}
		}
	}
	if epochRoots != epochs {
		t.Fatalf("epoch root spans = %d, want %d", epochRoots, epochs)
	}

	// Utilities must be real scheduling outcomes under the binding
	// capacity, not accept-everything.
	for _, res := range results {
		if res.Solution.Count == 0 || res.Solution.Count == res.Instance.NumShards() {
			sel := 0
			for _, on := range res.Solution.Selected {
				if on {
					sel++
				}
			}
			if sel == res.Instance.NumShards() {
				t.Fatalf("epoch %d scheduled the full set under a binding capacity", res.Epoch)
			}
		}
		_ = core.NewSolution(&res.Instance, res.Solution.Selected)
	}
}
