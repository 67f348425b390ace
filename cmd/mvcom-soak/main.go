// Command mvcom-soak runs the serving loop (epoch.Pipeline.Serve) for
// many epochs — optionally under fault injection — and gates on process
// health: goroutine counts must return to baseline and the post-GC heap
// must not grow with epoch count. It samples runtime.MemStats and
// goroutine counts in windows of a tenth of the epochs (at most
// maxWindows, folding pairwise as they fill), prints a per-window table,
// and can journal the steady-state epoch latency through
// internal/benchjournal so mvcom-benchdiff gates serving throughput in
// CI exactly like the kernel benchmarks.
//
// Usage:
//
//	mvcom-soak -epochs 200
//	mvcom-soak -epochs 50 -fault-spec 'epoch.committee:prob=0.2' -journal results/BENCH_SOAK.json
//	mvcom-soak -epochs 50 -timeline results/soak_timeline.json
//	mvcom-soak -duration 30s -warm=false
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mvcom/internal/benchjournal"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
	"mvcom/internal/seobs"
	"mvcom/internal/tracemerge"
	"mvcom/internal/txgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-soak:", err)
		os.Exit(1)
	}
}

// window is one sampling window's digest: mean epoch latency and
// permitted load over the window, plus the post-GC process state at its
// close.
type window struct {
	epochs     int
	meanNs     float64
	meanLoad   float64
	meanTTE    float64 // mean time-to-ε rounds over warm epochs; -1 if none
	heap       uint64
	goroutines int
}

// maxWindows caps the sampler's window list. When it fills, adjacent
// windows fold pairwise and the window length doubles, so a soak of any
// length keeps at most maxWindows windows of equal length (the trailing
// one may be partial) and forces one GC per window.
const maxWindows = 64

// soakStream drives Serve: it budgets epochs (count and/or wall clock),
// times each epoch, and folds per-epoch results into windows.
type soakStream struct {
	params      epoch.EpochParams
	maxEpochs   int
	deadline    time.Time // zero = no wall-clock budget
	sampleEvery int
	diag        *seobs.Diag
	verbose     bool

	epochStart time.Time
	served     int
	warmEpochs int

	// tteSum/tteN accumulate rounds-to-ε across every warm-started epoch
	// of the whole run (the per-window means reset) for the closing
	// summary line.
	tteSum float64
	tteN   int

	winNs, winLoad, winTTE float64
	winEpochs, winTTEn     int
	windows                []window
}

func (s *soakStream) NextContext(context.Context, int) (epoch.EpochParams, bool) {
	if s.maxEpochs > 0 && s.served >= s.maxEpochs {
		return epoch.EpochParams{}, false
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return epoch.EpochParams{}, false
	}
	s.epochStart = time.Now()
	return s.params, true
}

func (s *soakStream) Deliver(res *epoch.Result) error {
	dur := time.Since(s.epochStart)
	s.served++
	s.winEpochs++
	s.winNs += float64(dur.Nanoseconds())
	s.winLoad += float64(res.Solution.Load)
	if s.diag != nil {
		snap := s.diag.Snapshot()
		if snap.WarmStarts > 0 {
			s.warmEpochs++
			if snap.TimeToEpsRounds >= 0 {
				s.winTTE += float64(snap.TimeToEpsRounds)
				s.winTTEn++
				s.tteSum += float64(snap.TimeToEpsRounds)
				s.tteN++
			}
		}
	}
	if s.winEpochs >= s.sampleEvery {
		s.closeWindow()
	}
	return nil
}

// closeWindow forces a GC so HeapAlloc measures live bytes, snapshots
// the process, and appends the window, folding the list once it holds
// maxWindows.
func (s *soakStream) closeWindow() {
	if s.winEpochs == 0 {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{
		epochs:     s.winEpochs,
		meanNs:     s.winNs / float64(s.winEpochs),
		meanLoad:   s.winLoad / float64(s.winEpochs),
		meanTTE:    -1,
		heap:       ms.HeapAlloc,
		goroutines: runtime.NumGoroutine(),
	}
	if s.winTTEn > 0 {
		w.meanTTE = s.winTTE / float64(s.winTTEn)
	}
	s.windows = append(s.windows, w)
	if s.verbose {
		fmt.Printf("%-8d %-12s %-10.0f %-12.1f %-12d %-10d\n",
			s.served, time.Duration(w.meanNs).Round(time.Microsecond), w.meanLoad, w.meanTTE,
			w.heap/1024, w.goroutines)
	}
	s.winNs, s.winLoad, s.winTTE = 0, 0, 0
	s.winEpochs, s.winTTEn = 0, 0
	if len(s.windows) == maxWindows {
		s.fold()
	}
}

// fold merges adjacent windows pairwise and doubles the window length.
// A folded window takes the epoch-weighted means, the smaller heap
// sample (the heap gate compares minima) and the later goroutine count.
func (s *soakStream) fold() {
	ws := s.windows[:0]
	for i := 0; i+1 < len(s.windows); i += 2 {
		a, b := s.windows[i], s.windows[i+1]
		n := float64(a.epochs + b.epochs)
		w := window{
			epochs:     a.epochs + b.epochs,
			meanNs:     (a.meanNs*float64(a.epochs) + b.meanNs*float64(b.epochs)) / n,
			meanLoad:   (a.meanLoad*float64(a.epochs) + b.meanLoad*float64(b.epochs)) / n,
			meanTTE:    a.meanTTE,
			heap:       min(a.heap, b.heap),
			goroutines: b.goroutines,
		}
		switch {
		case a.meanTTE < 0:
			w.meanTTE = b.meanTTE
		case b.meanTTE >= 0:
			w.meanTTE = (a.meanTTE*float64(a.epochs) + b.meanTTE*float64(b.epochs)) / n
		}
		ws = append(ws, w)
	}
	s.windows = ws
	s.sampleEvery *= 2
}

// heapSlack is the post-warm-up heap growth the health gate tolerates.
// Nothing the pipeline keeps grows with epoch count (the root chain
// holds a bounded tail), so it only absorbs GC noise.
const heapSlack = 1 << 20

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-soak", flag.ContinueOnError)
	var (
		committees  = fs.Int("committees", 8, "member committees per epoch")
		size        = fs.Int("committee-size", 4, "replicas per committee")
		epochs      = fs.Int("epochs", 200, "epochs to serve (0 = unbounded, needs -duration)")
		duration    = fs.Duration("duration", 0, "wall-clock budget (0 = no limit)")
		alpha       = fs.Float64("alpha", 1.5, "throughput weight α")
		capFrac     = fs.Float64("capacity-frac", 0.6, "final-block capacity as a fraction of total trace TXs")
		nminFrac    = fs.Float64("nmin-frac", 0.1, "Nmin as a fraction of committees")
		nmaxFrac    = fs.Float64("nmax-frac", 0.8, "admission-window fraction Nmax")
		maxDefer    = fs.Int("max-deferrals", 2, "epochs a refused shard may re-queue before expiring (0 = unbounded; unbounded + capacity pressure grows the heap)")
		faultSpec   = fs.String("fault-spec", "", "fault injection spec, e.g. 'epoch.committee:prob=0.2' (empty = chaos off)")
		warm        = fs.Bool("warm", true, "thread each epoch's decision into the next as an SE warm start")
		gamma       = fs.Int("gamma", 4, "SE parallel exploration threads")
		seIters     = fs.Int("se-iters", 2000, "SE rounds per epoch")
		seed        = fs.Int64("seed", 1, "random seed")
		journalPath = fs.String("journal", "", "write a benchjournal (steady-state epoch latency) to this path")
		note        = fs.String("note", "", "free-form note stored in the journal")
		quiet       = fs.Bool("q", false, "suppress the per-window table")
		obsFlags    = obs.RegisterFlags(fs)
		timeline    = fs.String("timeline", "", "write the run's merged causal timeline (JSON) to this path after the soak")
		decLogDir   = fs.String("decision-log", "", "write the schema-versioned decision journal (one entry per epoch) to this directory, which must be new or empty, and replay-verify it as a gate")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochs <= 0 && *duration <= 0 {
		return fmt.Errorf("give -epochs, -duration, or both")
	}

	// The timeline export needs a live tracer even when no metrics
	// endpoint is requested.
	reg, stopObs, err := obsFlags.Start("mvcom-soak", *timeline != "")
	if err != nil {
		return err
	}
	defer stopObs()

	inj, err := faultinject.Parse(*faultSpec, *seed)
	if err != nil {
		return err
	}
	var dj *decisionlog.Journal
	if *decLogDir != "" {
		if err := decisionlog.RequireEmptyDir(*decLogDir); err != nil {
			return err
		}
		dj, err = decisionlog.Open(decisionlog.Options{Dir: *decLogDir, Registry: reg})
		if err != nil {
			return err
		}
		defer dj.Close()
	}
	p, err := epoch.NewPipeline(epoch.Config{
		Committees:    *committees,
		CommitteeSize: *size,
		NmaxFraction:  *nmaxFrac,
		MaxDeferrals:  *maxDefer,
		FaultInjector: inj,
		Trace: txgen.Config{
			Blocks:  *committees * 3,
			MeanTxs: 1200,
		},
		Seed:        *seed,
		Obs:         obs.NewEpochObserver(reg),
		DecisionLog: dj,
	})
	if err != nil {
		return err
	}
	capacity := int(*capFrac * float64(p.Trace().TotalTxs()))
	if capacity < 1 {
		return fmt.Errorf("capacity fraction %v too small", *capFrac)
	}
	nmin := int(*nminFrac * float64(*committees))

	diag := seobs.New(seobs.Config{})
	sched := epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
		Seed:      *seed,
		Gamma:     *gamma,
		MaxIters:  *seIters,
		WarmStart: *warm,
		Diag:      diag,
		Obs:       obs.NewSEObserver(reg),
	})}

	// A sampling window spans a tenth of the epochs (one epoch for a
	// duration-only soak) and doubles whenever maxWindows windows fill.
	every := max(*epochs/10, 1)
	stream := &soakStream{
		params:      epoch.EpochParams{Alpha: *alpha, Capacity: capacity, Nmin: nmin},
		maxEpochs:   *epochs,
		sampleEvery: every,
		diag:        diag,
		verbose:     !*quiet,
	}
	if *duration > 0 {
		stream.deadline = time.Now().Add(*duration)
	}

	fmt.Printf("soaking: |I|=%d size=%d capacity=%d nmin=%d warm=%v fault=%q window=%d epochs\n\n",
		*committees, *size, capacity, nmin, *warm, *faultSpec, every)
	if !*quiet {
		fmt.Printf("%-8s %-12s %-10s %-12s %-12s %-10s\n",
			"epoch", "ns/epoch", "txs", "tte(rounds)", "heap(KiB)", "goroutines")
	}

	// Goroutine baseline before the serving loop starts: the gate demands
	// the loop return the process to this count.
	runtime.GC()
	baselineGoroutines := runtime.NumGoroutine()
	start := time.Now()
	if err := p.Serve(context.Background(), sched, stream); err != nil {
		return err
	}
	stream.closeWindow() // flush a trailing partial window
	elapsed := time.Since(start)

	if stream.served == 0 {
		return fmt.Errorf("no epochs served inside the budget")
	}
	if err := p.Chain().Verify(); err != nil {
		return fmt.Errorf("root chain verification: %w", err)
	}
	fmt.Printf("\nserved %d epochs in %s (chain height %d, %d warm-started)\n",
		stream.served, elapsed.Round(time.Millisecond), p.Chain().Height(), stream.warmEpochs)
	if stream.tteN > 0 {
		fmt.Printf("mean rounds-to-eps: %.1f over %d warm epochs\n",
			stream.tteSum/float64(stream.tteN), stream.tteN)
	}

	failed := false
	heaps := make([]uint64, len(stream.windows))
	for i, w := range stream.windows {
		heaps[i] = w.heap
	}
	if err := obs.CheckHealth(heaps, heapSlack, baselineGoroutines); err != nil {
		failed = true
		fmt.Println("GATE FAIL:", err)
	}
	if *warm && stream.warmEpochs == 0 && stream.served > 1 {
		failed = true
		fmt.Println("GATE FAIL: warm start requested but no epoch recorded a warm-start event")
	}
	if dj != nil {
		if err := gateDecisionReplay(dj, stream.served); err != nil {
			failed = true
			fmt.Println("GATE FAIL:", err)
		}
	}

	if *journalPath != "" {
		if err := writeJournal(*journalPath, *note, stream.windows); err != nil {
			return err
		}
		fmt.Printf("journal written to %s (%d windows)\n", *journalPath, len(stream.windows))
	}
	if *timeline != "" {
		if err := writeTimeline(*timeline, reg); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("soak gates failed after %d epochs", stream.served)
	}
	fmt.Println("soak gates passed: goroutines at baseline, heap bounded")
	return nil
}

// gateDecisionReplay re-runs every journaled epoch decision and demands
// a bit-identical reproduction. Segment rotation may prune the oldest
// entries on a long soak, but every retained entry must replay; the SE
// scheduler — warm starts included — is deterministic from the recorded
// inputs, so nothing is skipped.
func gateDecisionReplay(dj *decisionlog.Journal, served int) error {
	if err := dj.Sync(); err != nil {
		return fmt.Errorf("decision journal: %w", err)
	}
	st, err := decisionlog.VerifyDir(dj.Dir())
	if err != nil {
		return fmt.Errorf("decision journal: %w", err)
	}
	dj.ReplayVerified(st.Ok())
	torn := ""
	if st.TornTail {
		torn = ", torn tail skipped"
	}
	fmt.Printf("decision journal: %d entries, %d replayed, %d skipped, %d failed%s\n",
		st.Entries, st.Replayed, st.Skipped, st.Failed, torn)
	if st.Entries == 0 && served > 0 {
		return fmt.Errorf("decision journal empty after %d epochs", served)
	}
	if !st.Ok() {
		return fmt.Errorf("decision replay: %d of %d entries diverged (first: %s)",
			st.Failed, st.Entries, st.Errors[0])
	}
	if st.Replayed == 0 && st.Entries > 0 {
		return fmt.Errorf("decision replay: all %d entries skipped — the SE serve path must be replayable", st.Entries)
	}
	return nil
}

// writeTimeline reconstructs the soak's causal timeline (epoch root
// spans with per-phase children) from the registry's ring buffer and
// writes the merged-timeline JSON artifact — the single-process shape of
// what mvcom-trace -merge produces for dist sessions. CI uploads this
// from the soak stage.
func writeTimeline(path string, reg *obs.Registry) error {
	events, dropped := reg.Tracer().Snapshot()
	m := tracemerge.Merge([]*tracemerge.Dump{
		{Name: "soak", Dropped: dropped, Events: events},
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := m.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("timeline written to %s (%d spans, %d orphans, %d events dropped)\n",
		path, m.Timeline.Spans, len(m.Timeline.Orphans), dropped)
	return nil
}

// writeJournal records the steady-state epoch latency (one sample per
// post-warm-up window) plus the process-health metrics, in the schema
// mvcom-benchdiff diffs and gates.
func writeJournal(path, note string, ws []window) error {
	if len(ws) == 0 {
		return fmt.Errorf("no windows to journal")
	}
	steady := ws[len(ws)/4:] // skip the warm-up quarter
	samples := make([]benchjournal.Sample, 0, len(steady))
	for _, w := range steady {
		s := benchjournal.Sample{
			N:       int64(w.epochs),
			NsPerOp: w.meanNs,
			Metrics: map[string]float64{
				"txs/epoch":  w.meanLoad,
				"heap-bytes": float64(w.heap),
				"goroutines": float64(w.goroutines),
			},
		}
		if w.meanTTE >= 0 {
			s.Metrics["rounds-to-eps"] = w.meanTTE
		}
		samples = append(samples, s)
	}
	j := &benchjournal.Journal{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Note:        note,
		Env:         benchjournal.CurrentEnv(),
		Benchmarks:  []benchjournal.Benchmark{benchjournal.Summarize("Soak/epoch", samples)},
	}
	return j.Save(path)
}
