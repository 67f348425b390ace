// Benchmarks: one per data figure of the paper (Figs. 2, 8–14) plus
// ablation benches for the design choices called out in DESIGN.md. Each
// figure bench executes a reduced-scale variant of the same code path the
// full experiment uses (cmd/mvcom-bench runs the paper-sized version) and
// reports the converged utility or headline metric via b.ReportMetric so
// regressions in solution quality show up next to time/op.
package mvcom_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"mvcom"
	"mvcom/internal/baseline"
	"mvcom/internal/benchjournal"
	"mvcom/internal/chain"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
	"mvcom/internal/experiments"
	"mvcom/internal/ingest"
	"mvcom/internal/metrics"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/seobs"
	"mvcom/internal/txgen"
)

const benchScale = 0.05

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Scale: benchScale}
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig02TwoPhaseLatency regenerates Fig. 2(a)+(b): the two-phase
// latency measurement under the Elastico pipeline.
func BenchmarkFig02TwoPhaseLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		resA, err := experiments.Run("2a", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Run("2b", benchOpts()); err != nil {
			b.Fatal(err)
		}
		// Report the formation/consensus latency ratio (the Fig. 2a
		// headline: formation dominates).
		f := resA.Series[0].Y
		c := resA.Series[1].Y
		b.ReportMetric(f[len(f)-1]/c[len(c)-1], "formation/consensus")
	}
}

// BenchmarkFig08ParallelThreads regenerates Fig. 8 (SE convergence vs Γ).
func BenchmarkFig08ParallelThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("8", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Series[len(res.Series)-1].Y
		b.ReportMetric(last[len(last)-1], "utility-gamma25")
	}
}

// BenchmarkFig09Dynamics regenerates Fig. 9(a)+(b): dynamic leave/rejoin
// and consecutive joins.
func BenchmarkFig09Dynamics(b *testing.B) {
	b.Run("a-leave-rejoin", func(b *testing.B) { runFigure(b, "9a") })
	b.Run("b-consecutive-joins", func(b *testing.B) { runFigure(b, "9b") })
}

// BenchmarkFig10ValuableDegree regenerates Fig. 10 and reports SE's
// valuable-degree lead over the best baseline.
func BenchmarkFig10ValuableDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("10", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		vd := map[string]float64{}
		for _, s := range res.Series {
			vd[s.Label] = s.Y[0]
		}
		bestBaseline := math.Max(vd["SA"], math.Max(vd["DP"], vd["WOA"]))
		b.ReportMetric(vd["SE"]/bestBaseline, "SE/best-baseline")
	}
}

// BenchmarkFig11VaryCommittees regenerates Fig. 11 (|I| sweep, 4
// algorithms).
func BenchmarkFig11VaryCommittees(b *testing.B) { runFigure(b, "11") }

// BenchmarkFig12VaryAlpha regenerates Fig. 12 (α sweep, 4 algorithms).
func BenchmarkFig12VaryAlpha(b *testing.B) { runFigure(b, "12") }

// BenchmarkFig13Distribution regenerates Fig. 13 (converged-utility
// distributions over repeated runs).
func BenchmarkFig13Distribution(b *testing.B) { runFigure(b, "13") }

// BenchmarkFig14OnlineJoins regenerates Fig. 14 (online execution with
// consecutive joins, α sweep).
func BenchmarkFig14OnlineJoins(b *testing.B) { runFigure(b, "14") }

// benchInstance builds the shared ablation instance.
func benchInstance(b *testing.B, n int) mvcom.Instance {
	b.Helper()
	in, err := experiments.PaperInstance(1, n, n*800, 1.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// ablationInstance is a 40-shard instance whose 32 arrived shards carry
// 46 627 txs against a 32 000 block, so SE runs its rounds. The arrived
// shards of benchInstance(b, 40) fit its block, and SE would return
// Alg. 1 line 1's all-arrived answer before any round.
func ablationInstance(b *testing.B) mvcom.Instance {
	b.Helper()
	in, err := experiments.PaperInstance(2, 40, 32000, 1.5, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	load := 0
	for _, i := range in.Arrived() {
		load += in.Sizes[i]
	}
	if load <= in.Capacity {
		b.Fatalf("arrived volume %d fits the %d block: SE would run no round", load, in.Capacity)
	}
	return in
}

// BenchmarkAblationBeta sweeps β: the Remark 2 tradeoff between optimality
// loss and convergence speed. Reported metric: converged utility.
func BenchmarkAblationBeta(b *testing.B) {
	in := ablationInstance(b)
	for _, beta := range []float64{0.5, 2, 8} {
		b.Run(betaName(beta), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				sol, _, err := core.NewSE(core.SEConfig{
					Seed: 1, Beta: beta, MaxIters: 1200, ConvergenceWindow: 1200,
				}).Solve(in.Clone())
				if err != nil {
					b.Fatal(err)
				}
				util = sol.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

func betaName(beta float64) string {
	switch beta {
	case 0.5:
		return "beta=0.5"
	case 2:
		return "beta=2"
	default:
		return "beta=8"
	}
}

// BenchmarkAblationSwapFeasibility compares Set-timer's
// resample-until-feasible strategy (SwapRetries=8) against giving up after
// the first infeasible proposal (SwapRetries=1).
func BenchmarkAblationSwapFeasibility(b *testing.B) {
	in := ablationInstance(b)
	for _, retries := range []int{1, 8} {
		name := "retries=1"
		if retries == 8 {
			name = "retries=8"
		}
		b.Run(name, func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				sol, _, err := core.NewSE(core.SEConfig{
					Seed: 1, SwapRetries: retries, MaxIters: 1200, ConvergenceWindow: 1200,
				}).Solve(in.Clone())
				if err != nil {
					b.Fatal(err)
				}
				util = sol.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

// BenchmarkSESolve measures the solver end-to-end across the paper's Γ
// scaling knob, comparing the serial kernel (GOMAXPROCS 1) against the
// concurrent one (the process's GOMAXPROCS; the kernel runs
// min(GOMAXPROCS, Γ) workers). The fixed iteration budget makes work per
// op identical across kernels — per-explorer split RNG streams mean both
// converge to the exact same utility — so the ns/op ratio is pure
// parallel speedup.
func BenchmarkSESolve(b *testing.B) {
	in := benchInstance(b, 200)
	for _, gamma := range []int{1, 8, 25} {
		b.Run(fmt.Sprintf("gamma=%d", gamma), func(b *testing.B) {
			for _, kernel := range []struct {
				name  string
				procs int
			}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
				b.Run(kernel.name, func(b *testing.B) {
					prev := runtime.GOMAXPROCS(kernel.procs)
					b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
					b.ReportAllocs()
					var util float64
					for i := 0; i < b.N; i++ {
						sol, _, err := core.NewSE(core.SEConfig{
							Seed: 1, Gamma: gamma,
							MaxIters: 2000, ConvergenceWindow: 2000,
						}).Solve(in.Clone())
						if err != nil {
							b.Fatal(err)
						}
						util = sol.Utility
					}
					b.ReportMetric(util, "utility")
				})
			}
		})
	}
}

// BenchmarkSESolveObs measures the instrumentation overhead gate from
// DESIGN.md §5c: the solver with no observer attached (the nil-is-off
// contract) versus the same run feeding a live registry AND the full
// convergence-diagnostics stream (DESIGN.md §5e). The attached/detached
// ratio is reported in benchjournal.OverheadUnit, and the journal diff
// fails when its best sample exceeds benchjournal.OverheadCeiling (1.03),
// so both the kernel's flush-at-merge batching and the diag's windowed
// aggregation have to keep their cost out of the per-round hot path.
//
// The two variants are interleaved within each iteration (alternating
// which goes first) and the ratio reported directly: back-to-back A/B
// runs would fold slow machine-load drift into the comparison, which on
// a shared runner dwarfs the few atomic adds per segment being gated.
func BenchmarkSESolveObs(b *testing.B) {
	in := benchInstance(b, 200)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	seObs := obs.NewSEObserver(reg)
	diag := seobs.New(seobs.Config{Registry: reg})
	solve := func(o *obs.SEObserver, d *seobs.Diag) float64 {
		sol, _, err := core.NewSE(core.SEConfig{
			Seed: 1, Gamma: 8, Obs: o, Diag: d,
			MaxIters: 2000, ConvergenceWindow: 2000,
		}).Solve(in.Clone())
		if err != nil {
			b.Fatal(err)
		}
		return sol.Utility
	}
	var detached, attached time.Duration
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			start := time.Now()
			uD := solve(nil, nil)
			mid := time.Now()
			uA := solve(seObs, diag)
			attached += time.Since(mid)
			detached += mid.Sub(start)
			if uD != uA {
				b.Fatalf("observer changed the solution: %v vs %v", uD, uA)
			}
		} else {
			start := time.Now()
			solve(seObs, diag)
			mid := time.Now()
			solve(nil, nil)
			detached += time.Since(mid)
			attached += mid.Sub(start)
		}
	}
	b.ReportMetric(float64(attached)/float64(detached), benchjournal.OverheadUnit)
}

// BenchmarkSESolveObsSpans extends the §5c overhead gate to the causal
// tracing layer (DESIGN.md §5h): the armed variant runs the solver under
// a live registry AND wraps every solve in a root epoch span with a
// solve child — the exact shape the epoch pipeline and dist session emit
// per epoch — while the detached variant has everything off. The journal
// diff holds the same 1.03 ceiling here, so span begin/end (two
// ring-buffer emits and one atomic ID allocation per span) must stay
// invisible next to a 2000-round solve.
func BenchmarkSESolveObsSpans(b *testing.B) {
	in := benchInstance(b, 200)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	seObs := obs.NewSEObserver(reg)
	diag := seobs.New(seobs.Config{Registry: reg})
	tc := reg.TraceContext()
	solve := func(o *obs.SEObserver, d *seobs.Diag, spans bool) float64 {
		var root, child *obs.Span
		if spans {
			root = tc.StartRoot("epoch", "bench")
			child = tc.StartSpan("solve", "bench", root.Context())
		}
		sol, _, err := core.NewSE(core.SEConfig{
			Seed: 1, Gamma: 8, Obs: o, Diag: d,
			MaxIters: 2000, ConvergenceWindow: 2000,
		}).Solve(in.Clone())
		if err != nil {
			b.Fatal(err)
		}
		if spans {
			child.Finish()
			root.Finish()
		}
		return sol.Utility
	}
	var detached, armed time.Duration
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			start := time.Now()
			uD := solve(nil, nil, false)
			mid := time.Now()
			uA := solve(seObs, diag, true)
			armed += time.Since(mid)
			detached += mid.Sub(start)
			if uD != uA {
				b.Fatalf("instrumentation changed the solution: %v vs %v", uD, uA)
			}
		} else {
			start := time.Now()
			solve(seObs, diag, true)
			mid := time.Now()
			solve(nil, nil, false)
			detached += time.Since(mid)
			armed += mid.Sub(start)
		}
	}
	b.ReportMetric(float64(armed)/float64(detached), benchjournal.OverheadUnit)
}

// BenchmarkSpanOff measures the tracing-off fast path: every span call
// on a nil TraceContext (the nil-is-off contract) must cost a few
// branches and zero heap. The journaled baseline is 0 allocs/op, and the
// journal diff fails on any growth over it, as for the SE round loop.
func BenchmarkSpanOff(b *testing.B) {
	var tc *obs.TraceContext // tracing disabled
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := tc.StartRoot("epoch", "bench")
		child := tc.StartSpan("solve", "bench", root.Context())
		child.FinishOutcome("ok")
		root.Finish()
	}
}

// BenchmarkTracerEmit measures the tracing-on emit path on a full
// DefaultTraceCapacity ring, where every event evicts one: a span's
// begin and end events plus a plain event per op. The journaled
// baseline is 0 allocs/op, and the journal diff fails on any growth.
func BenchmarkTracerEmit(b *testing.B) {
	tr := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity).Tracer()
	for i := 0; i < obs.DefaultTraceCapacity; i++ {
		tr.Emit(obs.EvSERound, "bench", float64(i), "")
	}
	sc := obs.SpanContext{TraceID: 1, SpanID: 2, ParentID: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.EmitSpan(obs.EvSpanBegin, "pipeline", 0, "solve", sc)
		tr.EmitSpan(obs.EvSpanEnd, "pipeline", 1e-4, "solve", sc)
		tr.Emit(obs.EvIngest, "ingest", float64(i), "batch")
	}
}

// BenchmarkTracerEmitFresh measures the emit path for strings the ring
// has not seen, the shape of the decision journal's "utility=<U>"
// detail, on a full DefaultTraceCapacity ring: one event per op whose
// detail is distinct and built beforehand, so each op interns a new
// string and frees the id of the one it evicts. The journaled baseline
// is 0 allocs/op, and the journal diff fails on any growth.
func BenchmarkTracerEmitFresh(b *testing.B) {
	tr := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity).Tracer()
	details := make([]string, obs.DefaultTraceCapacity+b.N)
	for i := range details {
		details[i] = fmt.Sprintf("utility=%d", i)
	}
	for _, d := range details[:obs.DefaultTraceCapacity] {
		tr.Emit(obs.EvDecision, "epoch", 0, d)
	}
	details = details[obs.DefaultTraceCapacity:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(obs.EvDecision, "epoch", float64(i), details[i])
	}
}

// BenchmarkSESolveSize measures the solver end-to-end at three instance
// sizes.
func BenchmarkSESolveSize(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		in := benchInstance(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.NewSE(core.SEConfig{
					Seed: 1, MaxIters: 300, ConvergenceWindow: 300,
				}).Solve(in.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSEWarmStart measures the serving loop's warm-start payoff on
// overlapping consecutive epochs: epoch 1 is solved once outside the
// timer; each iteration then solves epoch 2 either cold or seeded from
// epoch 1's solution (SE.SolveFrom). Besides time/op the benchmark
// reports rounds_to_eps — the rounds until the best utility entered the
// ε-band of its final value — which is the metric the soak journal
// gates: warm must reach the band in fewer rounds than cold.
func BenchmarkSEWarmStart(b *testing.B) {
	in1 := benchInstance(b, 60)
	prev, _, err := core.NewSE(core.SEConfig{Seed: 2, Gamma: 4, MaxIters: 8000}).Solve(in1.Clone())
	if err != nil {
		b.Fatal(err)
	}
	// The next epoch: jittered latencies, two departed shards.
	in2 := in1.Clone()
	for i := range in2.Latencies {
		in2.Latencies[i] *= 0.96 + 0.08*float64((i*37)%100)/100
		if in2.Latencies[i] > in2.DDL {
			in2.Latencies[i] = in2.DDL
		}
	}
	in2.Latencies[4] = in2.DDL + 1
	in2.Latencies[17] = in2.DDL + 1

	base := core.SEConfig{Seed: 9, Gamma: 4, MaxIters: 6000, ConvergenceWindow: 6000}
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			rounds := 0.0
			for i := 0; i < b.N; i++ {
				diag := seobs.New(seobs.Config{})
				cfg := base
				cfg.Diag = diag
				cfg.WarmStart = mode == "warm"
				se := core.NewSE(cfg)
				var err error
				if cfg.WarmStart {
					_, _, err = se.SolveFrom(in2.Clone(), prev)
				} else {
					_, _, err = se.Solve(in2.Clone())
				}
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(diag.Snapshot().TimeToEpsRounds)
			}
			b.ReportMetric(rounds/float64(b.N), "rounds_to_eps")
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 50:
		return "I=50"
	case 200:
		return "I=200"
	default:
		return "I=500"
	}
}

// BenchmarkSEStep measures a single Markov transition round.
func BenchmarkSEStep(b *testing.B) {
	in := benchInstance(b, 200)
	engine, err := core.NewEngine(in, core.SEConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.StepN(1)
	}
}

// BenchmarkSERounds measures the steady-state round loop on the big
// instance — the tentpole's target: construction is amortized away (one
// engine, pre-warmed past its first segment merges so the snapshot pool
// is primed), each op is one transition round, and the loop must run
// allocation-free (the journal diff fails on any allocs/op over the
// baseline's 0). rounds/sec is the journaled throughput metric.
func BenchmarkSERounds(b *testing.B) {
	in := benchInstance(b, 200)
	engine, err := core.NewEngine(in, core.SEConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	engine.StepN(256) // past the first merges: pool primed, caches hot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.StepN(1)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
}

// BenchmarkBaselines measures each comparison algorithm on the same
// instance.
func BenchmarkBaselines(b *testing.B) {
	in := benchInstance(b, 100)
	solvers := []core.Solver{
		baseline.SA{Seed: 1, Iterations: 2000},
		baseline.DP{},
		baseline.WOA{Seed: 1, Iterations: 60},
		baseline.Greedy{},
	}
	for _, s := range solvers {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				sol, _, err := s.Solve(in.Clone())
				if err != nil {
					b.Fatal(err)
				}
				util = sol.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

// BenchmarkEpochPipeline measures one full five-stage epoch.
func BenchmarkEpochPipeline(b *testing.B) {
	p, err := mvcom.NewPipeline(mvcom.PipelineConfig{
		Committees:    20,
		CommitteeSize: 8,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 3
	sched := mvcom.SolverScheduler{Solver: baseline.Greedy{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.RunEpoch(sched, 1.5, capacity, 5)
		if err != nil {
			b.Fatal(err)
		}
		o := metrics.Outcome(res.Epoch, &res.Instance, res.Solution)
		b.ReportMetric(float64(o.PermittedTxs)/o.DDL, "tx/s")
	}
}

// BenchmarkEpochServeDecisionLog measures the decision-journal overhead
// gate: two identical pipelines advance through epochs in lockstep — one
// journaling every committed decision to disk (full provenance record:
// shard reports, fingerprint, marginals, counterfactuals), the other
// with the journal off (the nil-is-off contract). Variants interleave
// within each iteration, alternating order, so machine-load drift cannot
// masquerade as journal cost; utilities must match exactly because the
// journal may observe the decision but never perturb it.
//
// The timed window covers RunEpoch only — what the serve path pays:
// Acquire, the decision fill (marginals, counterfactuals, deferral
// attribution), and the writer handoff. The background writer drains
// via Sync between windows, untimed: on a multi-core host its
// render/write CPU overlaps the solve, but CI may run on a single core
// where nothing overlaps and device writeback throttling would gate the
// solver on disk speed. The writer's own cost is pinned separately by
// BenchmarkJournalAppend and BenchmarkAppendEntryJSON in
// internal/decisionlog. The journal diff fails the build when the best
// on/off sample exceeds 1.03.
func BenchmarkEpochServeDecisionLog(b *testing.B) {
	newPipe := func(j *decisionlog.Journal) *epoch.Pipeline {
		p, err := epoch.NewPipeline(epoch.Config{
			Committees:    24,
			CommitteeSize: 8,
			Trace:         txgen.Config{Blocks: 240, MeanTxs: 80},
			Seed:          1,
			MaxDeferrals:  2,
			DecisionLog:   j,
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	j, err := decisionlog.Open(decisionlog.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	pOn := newPipe(j)
	pOff := newPipe(nil)
	// Soak-like steady state: 60% capacity and MaxDeferrals=2 keep the
	// deferral queue bounded at any b.N, and the solver runs the soak's
	// default 2000-round budget so the gate measures the journal against
	// the epoch cost the serve path actually pays.
	capacity := pOff.Trace().TotalTxs() * 3 / 5
	sched := epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 7, MaxIters: 2000, ConvergenceWindow: 2000})}
	runOne := func(p *epoch.Pipeline) float64 {
		res, err := p.RunEpoch(sched, 1.5, capacity, 2)
		if err != nil {
			b.Fatal(err)
		}
		return res.Solution.Utility
	}
	var off, on time.Duration
	for i := 0; i < b.N; i++ {
		var uOff, uOn float64
		if i%2 == 0 {
			start := time.Now()
			uOff = runOne(pOff)
			mid := time.Now()
			uOn = runOne(pOn)
			on += time.Since(mid)
			off += mid.Sub(start)
		} else {
			start := time.Now()
			uOn = runOne(pOn)
			mid := time.Now()
			uOff = runOne(pOff)
			off += time.Since(mid)
			on += mid.Sub(start)
		}
		if uOff != uOn {
			b.Fatalf("journal changed the decision: %v vs %v", uOff, uOn)
		}
		// Drain the async writer outside the timed windows (see the
		// benchmark comment).
		if err := j.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(on)/float64(off), benchjournal.OverheadUnit)
}

// servePlaneConfig is the pipeline of mvcom-serve's default plane: 8
// committees of 4, every committee admitted (Nmax 1), deferrals bounded
// at 2, a 24-block trace, telemetry on reg, and supply feeding the
// epochs.
func servePlaneConfig(reg *obs.Registry, supply epoch.ShardSupply) epoch.Config {
	return epoch.Config{
		Committees:    8,
		CommitteeSize: 4,
		NmaxFraction:  1,
		MaxDeferrals:  2,
		Trace:         txgen.Config{Blocks: 24, MeanTxs: 1200},
		Seed:          1,
		Obs:           obs.NewEpochObserver(reg),
		Supply:        supply,
	}
}

// evenSupply spreads txs transactions evenly over each epoch's fresh
// committees.
type evenSupply struct{ txs int }

func (s evenSupply) Fill(_ int, reports []epoch.CommitteeReport) {
	for i := range reports {
		reports[i].TxCount = s.txs / len(reports)
	}
}

// BenchmarkNewPipeline measures building the default serving plane's
// pipeline, most of it the PBFT step calibration's 400 pilot rounds:
// the pipeline's share of a plane's set-up time. The journal diff fails
// on allocs/op growth.
func BenchmarkNewPipeline(b *testing.B) {
	cfg := servePlaneConfig(obs.NewRegistryWithTrace(obs.DefaultTraceCapacity), evenSupply{txs: 500})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := epoch.NewPipeline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeEpoch measures one served epoch of the default plane:
// Supply-fed member stages, a 500-tx batch (mvcom-serve's default
// min-batch) that fits the 50 000-tx block, so the warm SE of the plane
// takes its trivial path, the final block, and the telemetry. Each op
// is one epoch of a single Serve loop, after ten untimed epochs have
// sized the scratch and seeded the warm start. The journal diff fails
// on allocs/op growth.
func BenchmarkServeEpoch(b *testing.B) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	p, err := epoch.NewPipeline(servePlaneConfig(reg, evenSupply{txs: 500}))
	if err != nil {
		b.Fatal(err)
	}
	sched := epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
		Seed: 1, Gamma: 4, MaxIters: 800, WarmStart: true, Obs: obs.NewSEObserver(reg),
	})}
	params := epoch.EpochParams{Alpha: 1.5, Capacity: 50000, Nmin: 1}
	ctx := context.Background()
	if err := p.Serve(ctx, sched, &epoch.FixedStream{N: 10, Params: params}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.Serve(ctx, sched, &epoch.FixedStream{N: b.N, Params: params}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBucketsFreshSource measures admission under a source name
// the full bucket map does not hold, as a client rotating its names
// sends: each op evicts the least recently refilled source. The 4 096
// names are four times the map's bound, so every name has been evicted
// before it comes round again. The journal diff fails on allocs/op
// growth over its 0.
func BenchmarkBucketsFreshSource(b *testing.B) {
	bk := ingest.NewBuckets(1000, 1000)
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("src-%d", i)
		bk.Allow(names[i], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bk.Allow(names[i%len(names)], 1) {
			b.Fatal("a fresh source was refused")
		}
	}
}

// benchTxsBody is a canonical POST /txs body of 100 transactions, cut
// from a txgen trace and marshaled the way the serving-plane benchmark's
// generators marshal theirs.
func benchTxsBody(b *testing.B) []byte {
	rng := randx.New(1)
	trace := txgen.Generate(rng, txgen.Config{Blocks: 8, MeanTxs: 800})
	shards, err := trace.IntoShards(rng, 2)
	if err != nil {
		b.Fatal(err)
	}
	txs := trace.Transactions(shards[0], rng.Split())
	if len(txs) < 100 {
		b.Fatalf("trace shard holds %d transactions, want 100", len(txs))
	}
	body, err := json.Marshal(struct {
		Source string              `json:"source,omitempty"`
		Txs    []chain.Transaction `json:"txs"`
	}{Source: "gen-0", Txs: txs[:100]})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchIngestStream is a serving plane's ingest stream without a rate
// limit and with a queue no benchmark fills, so every batch is admitted.
func benchIngestStream() *ingest.NetStream {
	return ingest.NewStream(ingest.StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 50000, Nmin: 1},
		QueueTxs: math.MaxInt,
	})
}

// pipeListener is an in-memory net.Listener: dial hands Accept the
// server end of a net.Pipe.
type pipeListener struct {
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// BenchmarkTCPFrame measures the framed-TCP front end: each op writes a
// canonical 100-transaction txs frame, marshaled as a client marshals
// an ingest.Envelope, on a connection ingest.ServeTCP serves from an
// in-memory listener, and reads its ack. The journal diff fails on
// allocs/op growth.
func BenchmarkTCPFrame(b *testing.B) {
	ln := newPipeListener()
	srv := ingest.ServeTCP(ln, benchIngestStream(), ingest.DefaultMaxBody)
	defer srv.Close()
	conn := ln.dial()
	defer conn.Close()
	frame, err := json.Marshal(ingest.Envelope{Type: ingest.MsgTxs, Body: benchTxsBody(b)})
	if err != nil {
		b.Fatal(err)
	}
	frame = append(frame, '\n')
	r := bufio.NewReader(conn)
	accepted := []byte(`{"accepted":true}` + "\n")
	send := func() {
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		ack, err := r.ReadSlice('\n')
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(ack, accepted) {
			b.Fatalf("ack %q", ack)
		}
	}
	send() // grows the server's line buffer to the frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}

// BenchmarkHTTPTxs measures the HTTP front end on the same batch: each
// op serves one canonical 100-transaction POST /txs through
// ingest.NewHandler, request and recorder included, as
// TestTxsRequestAllocs drives it. The journal diff fails on allocs/op
// growth.
func BenchmarkHTTPTxs(b *testing.B) {
	h := ingest.NewHandler(benchIngestStream(), ingest.DefaultMaxBody)
	body := benchTxsBody(b)
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txs", rd))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkAblationThreadLattice compares the per-cardinality thread
// lattice sizes: the full Alg. 1 thread set (one per cardinality) versus
// capped lattices. Reported metric: converged utility at equal round
// budget.
func BenchmarkAblationThreadLattice(b *testing.B) {
	in := benchInstance(b, 300)
	for _, threads := range []int{8, 64, 1024} {
		name := fmt.Sprintf("threads=%d", threads)
		b.Run(name, func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				sol, _, err := core.NewSE(core.SEConfig{
					Seed: 1, MaxThreads: threads, MaxIters: 3000, ConvergenceWindow: 3000,
				}).Solve(in.Clone())
				if err != nil {
					b.Fatal(err)
				}
				util = sol.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}

// BenchmarkAblationRateNormalization compares the scale-invariant
// temperature (default) against applying β to raw utilities (the literal
// reading of equation (7), which is quasi-deterministic at trace scale).
func BenchmarkAblationRateNormalization(b *testing.B) {
	in := benchInstance(b, 100)
	for _, disable := range []bool{false, true} {
		name := "normalized"
		if disable {
			name = "raw-beta"
		}
		b.Run(name, func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				sol, _, err := core.NewSE(core.SEConfig{
					Seed: 1, DisableRateNormalization: disable,
					MaxIters: 2000, ConvergenceWindow: 2000,
				}).Solve(in.Clone())
				if err != nil {
					b.Fatal(err)
				}
				util = sol.Utility
			}
			b.ReportMetric(util, "utility")
		})
	}
}
