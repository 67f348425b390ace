package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mvcom/internal/ingest"
	"mvcom/internal/obs"
)

// metric is one named number a run reports; note is printed beside it.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result is one measured window of one workload.
type result struct {
	workload          string
	traced            bool
	attempted, failed int64
	problems          []string
	metrics           []metric
	split             string // traced: the mean-latency split
	dump              string // traced: the obs trace dump written
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// addLatency reports the p50 and p90 of a timing in ms, each the median
// over the window's parts of that part's percentile; xs[i] fell in part
// part[i]. The note gives the whole window's highest supported
// percentile and the sample count.
func (r *result) addLatency(prefix string, xs []float64, part []int) {
	s := sorted(xs)
	q, v := tail(s, 1)
	note := fmt.Sprintf("%s %.4f (n=%d)", pname(q), v, len(s))
	for _, p := range []struct {
		name string
		q    float64
	}{{"_p50_ms", 0.5}, {"_p90_ms", 0.9}} {
		v := medianOfParts(xs, part, func(g []float64) float64 { return percentile(sorted(g), p.q) })
		r.add(prefix+p.name, "ms", v, note)
	}
}

// addTail reports a per-layer timing under name at the highest
// supported percentile at or below limit.
func (r *result) addTail(name, unit string, xs []float64, limit float64) {
	s := sorted(xs)
	q, v := tail(s, limit)
	r.add(name, unit, v, fmt.Sprintf("%s (n=%d)", pname(q), len(s)))
}

// runOpts are the settings of one measured window.
type runOpts struct {
	seed   int64
	window time.Duration
	traced bool
	outDir string
}

// measure runs one workload on a fresh plane: setup, warmup, the
// measurement window, then a graceful drain and the correctness checks.
// Untraced runs derive the end-to-end metrics; traced runs add the
// per-layer ones and write the trace dump to the output directory.
func measure(w workload, o runOpts) (*result, error) {
	if err := w.plane.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	inputs, err := buildInputs(o.seed, w.front)
	if err != nil {
		return nil, err
	}
	reps, traceCap := setupReps, 4096
	if o.traced {
		reps, traceCap = 1, traceCapacity(w, warmup+o.window)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var journals string
	if w.plane.decisionLog {
		if journals, err = os.MkdirTemp(o.outDir, "decisions-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(journals)
	}

	// The generators record into buffers sized for the whole run and
	// made before the heap baseline, so that heap_live_mb counts the
	// plane and not the load: baseHeap is the live heap with the inputs
	// and these buffers, before any plane exists.
	bufs := make([][]reqRecord, gens)
	for g := range bufs {
		bufs[g] = make([]reqRecord, 0, int((warmup+o.window)/w.interval())+1)
	}
	clk := clock{t0: time.Now()}
	setups := make([]float64, 0, reps)
	var pl *plane
	var baseHeap uint64
	for i := 0; i < reps; i++ {
		// Each build starts from a collected heap, as in a fresh process,
		// so a cycle owed to the previous build's garbage does not land
		// inside the timed setup.
		runtime.GC()
		if i == 0 {
			_, baseHeap = readRuntime(clk)
		}
		p, d, err := startPlane(w.plane, o.seed, clk, filepath.Join(journals, strconv.Itoa(i)), o.traced, traceCap)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, d.Seconds())
		if i == reps-1 {
			pl = p
		} else if err := p.close(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
	}
	defer pl.close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- pl.pipe.Serve(ctx, pl.sched, pl.clocked) }()
	start := clk.now() + 10*time.Millisecond
	from, to := start+warmup, start+warmup+o.window
	rt := sampleRuntime(clk, from, to)
	recs, genErr := drive(w, pl, inputs, bufs, start, to)
	pl.stream.Drain()
	var sErr error
	select {
	case sErr = <-serveErr:
	case <-time.After(60 * time.Second):
		cancel()
		sErr = fmt.Errorf("did not settle within 60s of the drain (%v)", <-serveErr)
	}
	rt.wait()
	r := &result{workload: w.name, traced: o.traced}
	if o.traced {
		path, tr := filepath.Join(o.outDir, "trace-"+w.name+".json"), pl.reg.Tracer()
		if err := writeDump(tr, path); err != nil {
			r.check(false, "trace dump: %v", err)
		}
		r.dump = fmt.Sprintf("%s (%d events, %d dropped)", path, tr.Emitted(), tr.Dropped())
	}
	closeErr := pl.close()

	st := pl.stream.Stats()
	r.check(sErr == nil, "Serve returned %v", sErr)
	r.check(closeErr == nil, "closing the plane: %v", closeErr)
	r.check(st.AccountingGap() == 0 && st.Unsettled() == 0 && st.AccountingErrors == 0,
		"books not settled after the drain: gap %d, unsettled %d, accounting errors %d",
		st.AccountingGap(), st.Unsettled(), st.AccountingErrors)
	if err := pl.pipe.Chain().Verify(); err != nil {
		r.check(false, "root chain: %v", err)
	}
	r.check(genErr == nil, "load generator: %v", genErr)
	var sent, acc, ref int64
	for _, q := range recs {
		sent++
		switch q.outcome {
		case accepted:
			acc++
		case refused:
			ref++
		}
	}
	r.check(sent == st.Requests && acc == st.Accepted && ref == st.Shed(),
		"generator ledger (requests %d, accepted %d, refused %d) disagrees with server stats (requests %d, accepted %d, shed %d)",
		sent, acc, ref, st.Requests, st.Accepted, st.Shed())
	shedFrac := w.shedFrac()
	if shedFrac == 0 {
		r.check(ref == 0, "admission refused %d requests", ref)
	}

	eps := pl.clocked.epochs
	if len(eps) == 0 {
		r.check(false, "the plane served no epoch")
		return r, nil
	}
	epochOf, err := assignEpochs(recs, eps)
	if err != nil {
		r.check(false, "%v", err)
		return r, nil
	}
	win := window{from: from, to: to}
	var winSent, winRefused, winFailed int64
	for i, q := range recs {
		if q.due < from || q.due >= to {
			continue
		}
		winSent++
		win.late = append(win.late, ms(q.sent-q.due))
		switch q.outcome {
		case refused:
			winRefused++
		case failed:
			winFailed++
		}
		if q.outcome != accepted {
			continue
		}
		e := eps[epochOf[i]]
		win.part = append(win.part, win.partOf(q.due))
		win.admit = append(win.admit, ms(q.ack-q.due))
		win.queue = append(win.queue, ms(e.flush-q.ack))
		win.run = append(win.run, ms(e.deliverIn-e.flush))
		win.deliver = append(win.deliver, ms(e.deliverOut-e.deliverIn))
		win.commit = append(win.commit, ms(e.deliverOut-q.due))
	}
	r.attempted, r.failed = winSent, winFailed
	if shedFrac == 0 {
		r.failed += winRefused
	}
	r.check(winSent > 0, "no request was due in the window")
	failedFrac := float64(winRefused+winFailed) / math.Max(float64(winSent), 1)
	if shedFrac > 0 {
		r.check(math.Abs(failedFrac-shedFrac) <= 0.02, "failed_frac %.4f outside %.4f ± 0.02", failedFrac, shedFrac)
	}

	// The window's epochs are those delivered between the first and the
	// last Deliver inside it; the counters are read at those two.
	lo, hi := -1, -1
	for i, e := range eps {
		if e.deliverOut >= from && e.deliverOut <= to {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 || hi <= lo {
		r.check(false, "the window saw fewer than two deliveries")
		return r, nil
	}
	a, b := eps[lo], eps[hi]
	win.span = (b.deliverOut - a.deliverOut).Seconds()
	win.epochs = eps[lo+1 : hi+1]
	dCommitted, dExpired := b.committed-a.committed, b.expired-a.expired
	tps := float64(dCommitted) / win.span
	var ageTx, utility float64
	decided := 0
	for _, e := range win.epochs {
		ageTx += e.ageTx
		if e.decided {
			utility += e.utility
			decided++
		}
	}
	if w.keepUp {
		want := w.offered * (1 - shedFrac)
		r.check(math.Abs(tps-want) <= 0.02*want, "committed_tps %.0f is not within 2%% of the admitted offered %.0f tx/s", tps, want)
	}
	r.check(decided > 0 && dCommitted > 0, "no epoch in the window committed a decision")

	r.add("committed_tps", "tx/s", tps, fmt.Sprintf("over %.2fs between deliveries", win.span))
	r.addLatency("admit", win.admit, win.part)
	r.addLatency("commit", win.commit, win.part)
	r.add("failed_frac", "ratio", failedFrac, fmt.Sprintf("%d of %d", winRefused+winFailed, winSent))
	r.add("expired_frac", "ratio", float64(dExpired)/math.Max(float64(dCommitted+dExpired), 1), "")
	r.add("age_per_tx_s", "sim_s", ageTx/math.Max(float64(dCommitted), 1), "")
	r.add("utility_per_epoch", "U", utility/math.Max(float64(decided), 1), fmt.Sprintf("%d decided epochs", decided))
	heapParts := make([]int, len(rt.heapAt))
	for i, at := range rt.heapAt {
		heapParts[i] = win.partOf(at)
	}
	r.add("heap_live_mb", "MiB", medianOfParts(rt.heaps, heapParts, slices.Min[[]float64])-float64(baseHeap)/(1<<20),
		fmt.Sprintf("%d samples every %s, less %.2f MiB held before the plane", len(rt.heaps), heapEvery, float64(baseHeap)/(1<<20)))
	_, setup, _ := quartiles(setups)
	r.add("setup_s", "s", setup, fmt.Sprintf("median of %d", reps))
	if o.traced {
		r.addLayers(win, pl, st, rt)
	}
	return r, nil
}

// window is what one run's records give the metrics: per accepted
// request due in the window, its part and its timings in ms; the epochs
// delivered in the window; and the seconds between the deliveries that
// bracket them.
type window struct {
	from, to                           time.Duration
	part                               []int
	admit, queue, run, deliver, commit []float64
	late                               []float64 // send lateness of every request due in the window
	epochs                             []epochRecord
	span                               float64
}

// parts is how many equal parts a window is cut into. The latency
// percentiles and the live heap are the median over the parts of each
// part's value, so that a few seconds in which other tenants of the
// machine take its CPUs move one part and not the result: in one set of
// ten http-overload runs, two had a whole-window commit_p90 of 38 and
// 70 ms against 7.5 ms for the rest.
const parts = 5

// partOf returns the part of the window that t falls in.
func (w window) partOf(t time.Duration) int {
	return min(max(int(int64(t-w.from)*parts/int64(w.to-w.from)), 0), parts-1)
}

// addLayers adds the traced run's per-layer metrics and the
// mean-latency split, which adds up exactly because every term is a
// per-request mean.
func (r *result) addLayers(win window, pl *plane, st ingest.Stats, rt *rtSampler) {
	r.split = fmt.Sprintf("admit %.4f + queue_wait %.4f + epoch_run %.4f + deliver %.4f = commit %.4f ms (means over %d requests)",
		mean(win.admit), mean(win.queue), mean(win.run), mean(win.deliver), mean(win.commit), len(win.admit))
	for _, l := range []struct {
		name  string
		layer int
	}{{"ingest.http_handler_us", layerHTTP}, {"ingest.tcp_frame_us", layerTCP}, {"ingest.submit_us", layerSubmit}} {
		xs := pl.probe.timers[l.layer].micros(win.from, win.to)
		r.addTail(l.name+".p50", "us", xs, 0.5)
		r.addTail(l.name+".p99", "us", xs, 0.99)
	}
	r.add("ingest.queue_wait_ms.mean", "ms", mean(win.queue), "")
	r.addTail("ingest.queue_wait_ms.p90", "ms", win.queue, 0.9)
	var flushMs, batch, deliverUs, runMs, glueMs, solveMs, live []float64
	var phaseSum [len(phaseNames)]float64
	var sumPhases, sumEpochRun float64
	searched, selected, liveShards := 0, 0, 0
	for _, e := range win.epochs {
		if e.full {
			flushMs = append(flushMs, ms(e.flush-e.enter))
		}
		batch = append(batch, float64(e.flushedTxs))
		deliverUs = append(deliverUs, float64(e.deliverOut-e.deliverIn)/float64(time.Microsecond))
		run := ms(e.deliverIn - e.flush)
		runMs = append(runMs, run)
		phases := 0.0
		for j, s := range e.phases {
			phaseSum[j] += s * 1e3
			phases += s * 1e3
		}
		glueMs = append(glueMs, run-phases)
		sumPhases += phases
		sumEpochRun += run
		if e.decided {
			solveMs = append(solveMs, e.phases[2]*1e3)
			live = append(live, float64(e.live))
			liveShards += e.live
			selected += e.selected
			if e.searched {
				searched++
			}
		}
	}
	epochs := float64(len(win.epochs))
	r.addTail("ingest.flush_ms.p50", "ms", flushMs, 0.5)
	r.add("ingest.batch_txs.mean", "tx", mean(batch), "")
	r.addTail("ingest.deliver_us.p50", "us", deliverUs, 0.5)
	r.add("ingest.shed_rate", "count", float64(st.ShedRate), "whole run")
	r.add("ingest.shed_queue", "count", float64(st.ShedQueue), "whole run")
	r.add("ingest.shed_other", "count", float64(st.ShedBody+st.ShedDrain+st.ShedInvalid), "whole run")
	r.add("epoch.per_s", "1/s", epochs/win.span, "")
	r.add("epoch.run_ms.mean", "ms", mean(runMs), "")
	r.addTail("epoch.run_ms.p99", "ms", runMs, 0.99)
	r.add("epoch.consensus_ms.mean", "ms", phaseSum[0]/epochs, "")
	r.add("epoch.collect_ms.mean", "ms", phaseSum[1]/epochs, "")
	r.add("epoch.commit_ms.mean", "ms", phaseSum[3]/epochs, "")
	r.add("epoch.glue_ms.mean", "ms", mean(glueMs), "run minus the four phases")
	attributed := sumPhases / math.Max(sumEpochRun, 1e-9)
	note := ""
	if attributed < 0.9 {
		note = "below the 0.9 attribution gate"
	}
	r.add("epoch.attributed_frac", "ratio", attributed, note)
	r.add("epoch.live_shards.mean", "count", mean(live), "")
	r.add("core.solve_ms.mean", "ms", mean(solveMs), fmt.Sprintf("%d decided epochs", len(solveMs)))
	r.addTail("core.solve_ms.p99", "ms", solveMs, 0.99)
	r.add("core.solve.searched_frac", "ratio", float64(searched)/math.Max(float64(len(solveMs)), 1), "")
	r.add("core.selected_frac", "ratio", float64(selected)/math.Max(float64(liveShards), 1), "")
	busy := rt.b.procCPU - rt.a.procCPU
	wall := (rt.b.at - rt.a.at).Seconds()
	r.add("runtime.gc_cpu_frac", "ratio", (rt.b.gcCPU-rt.a.gcCPU)/math.Max(busy.Seconds(), 1e-9), "share of process CPU")
	r.add("runtime.alloc_mb_per_s", "MiB/s", (rt.b.allocBytes-rt.a.allocBytes)/(1<<20)/wall, "")
	r.add("runtime.cpu_busy_frac", "ratio", busy.Seconds()/(wall*float64(runtime.GOMAXPROCS(0))), "")
	r.addTail("loadgen.late_p99_ms", "ms", win.late, 0.99)
	r.add("loadgen.requests", "count", float64(len(win.late)), "")
}

// drive dials one sender per generator and runs them until end, each
// recording into its buffer in bufs.
func drive(w workload, pl *plane, inputs []genInput, bufs [][]reqRecord, start, end time.Duration) ([]reqRecord, error) {
	interval := w.interval()
	senders := make([]sender, 0, gens)
	defer func() {
		for _, s := range senders {
			s.close()
		}
	}()
	for _, in := range inputs {
		s, err := dial(pl, w.front, in)
		if err != nil {
			return nil, err
		}
		senders = append(senders, s)
	}
	recs := make([][]reqRecord, gens)
	errs := make([]error, gens)
	var wg sync.WaitGroup
	for g, s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Offsetting the generators by half an interval interleaves
			// their schedules into one evenly spaced stream.
			recs[g], errs[g] = generate(pl.clocked.clk, s, bufs[g], start, end, interval*time.Duration(g)/gens, interval)
		}()
	}
	wg.Wait()
	var all []reqRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	return all, errors.Join(errs...)
}

// traceCapacity sizes the traced run's obs trace ring to hold the whole
// run: two events per admission span, one per shed, and per epoch the
// pipeline's and the benchmark's spans plus one age event per shard.
func traceCapacity(w workload, d time.Duration) int {
	reqPerS := w.offered / batchTxs
	epochPerS := 1000.0
	if w.plane.minBatch > 10000 {
		epochPerS = 20
	}
	perS := reqPerS*3 + epochPerS*float64(40+w.plane.committees)
	return int(perS * d.Seconds())
}

// writeDump streams a trace ring to path in the obs /trace format that
// mvcom-trace -merge reads.
func writeDump(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.StreamJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rtSnap is a point-in-time reading of the process's runtime counters.
type rtSnap struct {
	at         time.Duration
	gcCPU      float64 // seconds of CPU the GC used
	allocBytes float64 // bytes ever allocated on the heap
	procCPU    time.Duration
}

// rtSampler reads the runtime counters at both ends of the window and
// the live heap every heapEvery inside it.
type rtSampler struct {
	done   chan struct{}
	a, b   rtSnap
	heaps  []float64       // live heap samples in MiB
	heapAt []time.Duration // when each was taken
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes", "/gc/heap/live:bytes"}

func readRuntime(clk clock) (rtSnap, uint64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rtSnap{
		at:         clk.now(),
		gcCPU:      s[0].Value.Float64(),
		allocBytes: float64(s[1].Value.Uint64()),
		procCPU:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}, s[2].Value.Uint64()
}

// heapEvery is the live-heap sampling period. The live heap changes
// only when a GC cycle ends, several times a second here, and each
// cycle's value depends on how full the queue was when it ran.
// heap_live_mb takes the lowest sample of each part of the window, the
// cycle that found the queue emptiest: over ten seeds of
// solve-capacity its quartiles lay 0.09 MiB apart, those of the part
// means 0.18 MiB.
const heapEvery = 100 * time.Millisecond

func sampleRuntime(clk clock, from, to time.Duration) *rtSampler {
	s := &rtSampler{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for next := from; next < to; next += heapEvery {
			time.Sleep(next - clk.now())
			snap, heap := readRuntime(clk)
			if next == from {
				s.a = snap
			}
			s.heaps = append(s.heaps, float64(heap)/(1<<20))
			s.heapAt = append(s.heapAt, snap.at)
		}
		time.Sleep(to - clk.now())
		s.b, _ = readRuntime(clk)
	}()
	return s
}

func (s *rtSampler) wait() { <-s.done }
