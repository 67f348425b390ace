package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/seobs"
)

// SEConfig tunes the Stochastic-Exploration algorithm (Alg. 1).
type SEConfig struct {
	// Beta is the log-sum-exp approximation parameter β (> 0). Larger β
	// shrinks the optimality loss (1/β)·log|F| but slows mixing
	// (Remark 2). The paper's default is 2.
	//
	// Unless DisableRateNormalization is set, β applies to utility
	// differences measured in units of the mean per-shard |value| of the
	// instance. Raw trace utilities are of order 10³–10⁶, at which a
	// literal exp(½β·ΔU) is both numerically meaningless and effectively
	// zero-temperature (the chain degenerates to greedy and Γ parallel
	// explorers all collapse onto one trajectory, contradicting the
	// stochastic behaviour of the paper's own Fig. 8); normalization
	// keeps the designed temperature scale-invariant.
	Beta float64
	// DisableRateNormalization applies β to raw utility differences
	// instead of value-scaled ones. The timer race still cannot overflow
	// (it runs in log space), but the chain becomes quasi-deterministic
	// at realistic utility scales.
	DisableRateNormalization bool
	// Gamma is the number of parallel exploration threads Γ (Fig. 8).
	// Each explorer runs an independent copy of the chain; the scheduler
	// reports the best solution across explorers after every round.
	// Default 1.
	Gamma int
	// MaxIters caps the number of transition rounds. Default 20000.
	MaxIters int
	// ConvergenceWindow stops the run once the best utility has not
	// improved for this many consecutive rounds ("an empirical number of
	// running iterations"). Default 400.
	ConvergenceWindow int
	// SwapRetries bounds the resampling attempts Set-timer makes to find
	// a capacity-feasible swap for a solution thread. Default 8.
	SwapRetries int
	// MaxThreads caps the number of solution threads per explorer. Alg. 1
	// nominally keeps one thread per cardinality n ∈ {1..|I|−1}; for
	// hundreds of shards that spreads the transition budget over hundreds
	// of subproblems of which only the cardinalities near the capacity
	// knee matter. When |I|−1 exceeds this cap the explorer keeps an
	// evenly spaced lattice of cardinalities instead (the utility is
	// smooth in n, so the lattice loses at most a few shards of
	// granularity). Default 64.
	MaxThreads int
	// WarmStart lets SolveFrom seed every explorer's solution threads
	// from a previous epoch's selection projected onto the surviving
	// candidate set (departed shards are trimmed exactly as a leave event
	// trims the state space). Warm starting only changes the chain's
	// initial state, never its transition rates, so the stationary
	// distribution — and therefore the quality of the converged answer —
	// is untouched; consecutive epochs with overlapping candidate sets
	// just reach it in fewer rounds. When false, SolveFrom ignores the
	// previous solution and behaves exactly like Solve.
	WarmStart bool
	// Seed drives all randomness. Explorers split independent streams
	// from it.
	Seed int64
	// Obs, when non-nil, receives runtime telemetry: round/swap/RESET
	// counters, the best-utility gauge, and structured trace events.
	// Explorers tally plain ints in the hot loop and flush them only at
	// segment merges, so the overhead with Obs attached stays within the
	// ci.sh benchmark gate (≤ 3%); nil disables every hook.
	Obs *obs.SEObserver
	// Diag, when non-nil, receives convergence diagnostics: windowed
	// per-thread utility series, swap-acceptance/RESET rates,
	// time-to-ε-of-best, the empirical d_TV estimator on small
	// instances, and the autocorrelation mixing proxy (see
	// internal/seobs). Like Obs it is nil-is-off and flushed only at
	// segment merges; the same ≤3% benchmark gate covers both. A Diag
	// serves one run at a time — it is re-bound by each Solve.
	Diag *seobs.Diag
}

func (c SEConfig) withDefaults() SEConfig {
	if c.Beta <= 0 {
		c.Beta = 2
	}
	if c.Gamma <= 0 {
		c.Gamma = 1
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 20000
	}
	if c.ConvergenceWindow <= 0 {
		c.ConvergenceWindow = 400
	}
	if c.SwapRetries <= 0 {
		c.SwapRetries = 8
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = 64
	}
	return c
}

// TracePoint records the best-so-far utility after a transition round; the
// sequence of points is the convergence curve plotted in Figs. 8–14.
type TracePoint struct {
	Iteration int
	Utility   float64
}

// SE is the online distributed Stochastic-Exploration solver.
type SE struct {
	cfg SEConfig
}

// NewSE returns a solver with the given configuration.
func NewSE(cfg SEConfig) *SE {
	return &SE{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (se *SE) Config() SEConfig { return se.cfg }

// Solve runs the SE algorithm on a static instance and returns the best
// feasible solution found together with its convergence trace.
func (se *SE) Solve(in Instance) (Solution, []TracePoint, error) {
	run, sol, err := se.prepare(&in)
	if err != nil {
		return Solution{}, nil, err
	}
	if run == nil {
		return sol, []TracePoint{{Iteration: 0, Utility: sol.Utility}}, nil
	}
	trace := run.loop(nil)
	sol, err = run.best()
	if err != nil {
		return Solution{}, trace, err
	}
	return sol, trace, nil
}

// prepare validates in and checks Alg. 1 line 1 before any SE state
// exists. When the arrived shards fit the block it returns a nil run and
// the all-arrived solution: such an epoch seeds no RNG and builds no
// explorer, and an attached Diag is bound to the solution returned (one
// improvement at round 0), not to random initializations it discards.
// Otherwise it returns the run to search with. An instance with no
// arrived shard is ErrNoCandidates even when Nmin is 0.
func (se *SE) prepare(in *Instance) (*run, Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, Solution{}, err
	}
	if sol, ok := trivial(in); ok && sol.Count > 0 {
		if d := se.cfg.Diag; d != nil {
			d.Bind(seobs.RunInfo{K: sol.Count, Gamma: se.cfg.Gamma, Beta: se.cfg.Beta, Capacity: in.Capacity, Nmin: in.Nmin})
			d.RecordImprovement(0, sol.Utility)
		}
		return nil, sol, nil
	}
	r, err := newRun(in, se.cfg)
	return r, Solution{}, err
}

// syncRounds is the batch length R: how many transition rounds every
// explorer advances between synchronization points. Within a batch the
// explorers are fully independent (own RNG stream, own threads, own local
// best), so they run on separate goroutines with no shared mutable state;
// at the sync point the coordinator merges their improvement logs in a
// deterministic order. 64 rounds amortize the goroutine handoff well below
// the per-round cost while keeping the convergence check responsive (the
// default window is 400 rounds).
const syncRounds = 64

// bestSnapshot is the atomically published view of the global best. The
// struct and its sel slice are immutable after publication, so readers on
// any goroutine (Engine.BestUtility under a concurrently stepping kernel,
// monitoring hooks) need no lock.
type bestSnapshot struct {
	util float64
	sel  []bool // over candidate positions; never mutated after publish
	n    int
}

// run is the shared machinery of Solve and SolveOnline: the candidate
// set, Γ explorers, and the global best tracker.
type run struct {
	in  *Instance
	cfg SEConfig

	candidates []int // instance indices of arrived shards
	explorers  []*explorer
	rootRNG    *randx.RNG
	workers    int // min(GOMAXPROCS, Γ): see stepSegment
	obs        *obs.SEObserver
	diag       *seobs.Diag
	// diagScratch is the reusable per-cardinality window buffer handed
	// to Diag.Flush (which copies it).
	diagScratch []seobs.ThreadPoint

	// vals and sizes cache Value(i) and Sizes[i] per candidate position so
	// the hot loop never chases the instance indirection; rebuilt on every
	// dynamic event.
	vals  []float64
	sizes []int
	// minLoad[n] is the minimum achievable load of an n-subset (sorted
	// prefix sums); the exact infeasibility gate of initThread.
	// sizeOrder is the matching size argsort of candidate positions.
	minLoad   []int
	sizeOrder []int

	// cards is the live thread-cardinality lattice shared by every
	// explorer (one solution thread f_n per entry, identical layout across
	// explorers — the diagnostics rely on index alignment). Dynamic
	// events grow or shrink it with the candidate set.
	cards []int

	// betaEff is the effective β used in timer rates: cfg.Beta divided by
	// the mean per-shard |value| unless normalization is disabled.
	// halfBeta caches ½·betaEff for the per-round rate computation.
	betaEff  float64
	halfBeta float64

	// expVals and invExpVals cache exp(½β·(v_pos − v_max)) and its
	// reciprocal per candidate position, centered at the maximum value so
	// every entry lies in (0, 1] and the ratio trick cannot overflow: a
	// proposal's race weight is expRateBase·expVals[in]·invExpVals[out] =
	// exp(rateBase + ½β·ΔU) with zero math.Exp calls in the round loop.
	// Rebuilt whenever β_eff or the candidate set changes.
	expVals    []float64
	invExpVals []float64
	// linearRace is true when the cached-exponential race cannot under- or
	// overflow (½β·(v_max − v_min) plus the rate-base magnitude stays well
	// inside float64 range); otherwise the kernel falls back to the
	// log-space race (raw-β runs at trace utility scale land here).
	linearRace bool

	// global is the coordinator's view of the best solution; it is only
	// touched between segments (single-threaded). snap is the published
	// lock-free copy for cross-goroutine readers.
	global struct {
		util float64
		sel  []bool
		n    int
		have bool
	}
	// globalDirty marks that global changed since the last publish, so
	// no-improvement merges (the common case when an Engine steps round by
	// round) skip the snapshot allocation.
	globalDirty bool
	snap        atomic.Pointer[bestSnapshot]

	mergeCursors []int
	iterations   int
}

func newRun(in *Instance, cfg SEConfig) (*run, error) {
	cands := in.Arrived()
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	r := &run{
		in:         in,
		cfg:        cfg,
		candidates: cands,
		rootRNG:    randx.New(cfg.Seed),
		workers:    max(1, min(runtime.GOMAXPROCS(0), cfg.Gamma)),
		obs:        cfg.Obs,
	}
	r.global.util = math.Inf(-1)
	r.cards = threadCardinalities(len(cands), cfg.MaxThreads)
	r.refreshCandidateCaches()
	r.refreshBetaEff()
	r.explorers = make([]*explorer, cfg.Gamma)
	for g := range r.explorers {
		r.explorers[g] = newExplorer(r, r.rootRNG.Split())
	}
	r.mergeCursors = make([]int, len(r.explorers))
	for _, ex := range r.explorers {
		r.adoptLocal(ex)
	}
	// The full selection f_|I| participates in the final arg-max when Ĉ
	// permits it (Alg. 1 line 25). It does not depend on any explorer, so
	// it is evaluated once per solve here rather than once per explorer.
	r.offerFullIfFeasible()
	r.publishBest()
	r.bindDiag()
	return r, nil
}

// bindDiag attaches the configured convergence diagnostics to a fresh
// run: binds the run description, installs per-explorer probes, and
// seeds the improvement history with the initial best.
func (r *run) bindDiag() {
	if r.cfg.Diag == nil {
		return
	}
	r.diag = r.cfg.Diag
	r.diag.Bind(r.diagInfo())
	r.attachProbes()
	if r.global.have {
		r.diag.RecordImprovement(0, r.global.util)
	}
}

// diagInfo describes the live candidate set for the diagnostics; the
// slices are copied because dynamic events rebuild the run's caches.
func (r *run) diagInfo() seobs.RunInfo {
	return seobs.RunInfo{
		K:        len(r.candidates),
		Gamma:    len(r.explorers),
		Beta:     r.cfg.Beta,
		BetaEff:  r.betaEff,
		Capacity: r.in.Capacity,
		Nmin:     r.in.Nmin,
		Sizes:    append([]int(nil), r.sizes...),
		Values:   append([]float64(nil), r.vals...),
		Cards:    append([]int(nil), r.cards...),
	}
}

// attachProbes (re)creates every explorer's probe against the diag's
// current binding, seeding the incremental selection masks. Runs at
// construction and after dynamic events, never during a segment.
func (r *run) attachProbes() {
	for g, ex := range r.explorers {
		p := r.diag.NewProbe(g, len(ex.threads))
		ex.probe = p
		if !p.TracksVisits() {
			continue
		}
		for i, th := range ex.threads {
			var mask uint64
			for pos, on := range th.selected {
				if on {
					mask |= 1 << uint(pos)
				}
			}
			p.SetThread(i, mask, th.active)
		}
	}
}

// rateNormalization rescales the normalized temperature so that a typical
// improving swap (ΔU of a few tenths of the mean |value|) carries a
// transition-rate advantage of a few nats: strong enough to drive the
// chain uphill, weak enough that explorers keep diverging.
const rateNormalization = 8

// refreshCandidateCaches rebuilds the per-position value/size caches;
// called at construction and after every dynamic event.
func (r *run) refreshCandidateCaches() {
	k := len(r.candidates)
	r.vals = make([]float64, k)
	r.sizes = make([]int, k)
	for pos, idx := range r.candidates {
		r.vals[pos] = r.in.Value(idx)
		r.sizes[pos] = r.in.Sizes[idx]
	}
	// minLoad[n] is the smallest possible load of an n-subset (prefix
	// sums of the sorted sizes): minLoad[n] > Capacity proves cardinality
	// n infeasible, letting initThread skip its retry budget entirely.
	// sizeOrder is the matching argsort — its first n positions are a
	// guaranteed-feasible n-subset whenever minLoad[n] ≤ Capacity.
	r.sizeOrder = make([]int, k)
	for pos := range r.sizeOrder {
		r.sizeOrder[pos] = pos
	}
	sort.SliceStable(r.sizeOrder, func(a, b int) bool {
		return r.sizes[r.sizeOrder[a]] < r.sizes[r.sizeOrder[b]]
	})
	r.minLoad = make([]int, k+1)
	for i, pos := range r.sizeOrder {
		r.minLoad[i+1] = r.minLoad[i] + r.sizes[pos]
	}
}

// refreshBetaEff recomputes the effective β from the live candidate set,
// then rebuilds the cached exponentials the race evaluates from; called
// at construction and after every dynamic event (after
// refreshCandidateCaches).
func (r *run) refreshBetaEff() {
	r.betaEff = r.cfg.Beta
	if !r.cfg.DisableRateNormalization && len(r.vals) > 0 {
		var absSum float64
		for _, v := range r.vals {
			absSum += math.Abs(v)
		}
		if scale := absSum / float64(len(r.vals)); scale > 0 {
			r.betaEff = rateNormalization * r.cfg.Beta / scale
		}
	}
	r.halfBeta = 0.5 * r.betaEff
	r.refreshRateCaches()
}

// linearRaceBudget bounds the exponent magnitude the linear-space race
// may accumulate (weight spread plus rate base plus the thread-count sum
// headroom); float64 overflows just above e^709, so 650 leaves room for
// summing MaxThreads worst-case weights.
const linearRaceBudget = 650

// refreshRateCaches rebuilds expVals/invExpVals — the per-candidate
// cached exponentials exp(½β·(v − v_max)) the fused race multiplies
// instead of exponentiating — and decides whether the linear-space race
// is numerically safe for the current β_eff and value spread.
func (r *run) refreshRateCaches() {
	k := len(r.vals)
	if cap(r.expVals) < k {
		r.expVals = make([]float64, k)
		r.invExpVals = make([]float64, k)
	}
	r.expVals = r.expVals[:k]
	r.invExpVals = r.invExpVals[:k]
	if k == 0 {
		r.linearRace = false
		return
	}
	vmax, vmin := r.vals[0], r.vals[0]
	for _, v := range r.vals[1:] {
		if v > vmax {
			vmax = v
		}
		if v < vmin {
			vmin = v
		}
	}
	spread := r.halfBeta * (vmax - vmin)
	r.linearRace = spread+math.Log(float64(k)+1) < linearRaceBudget
	if !r.linearRace {
		return
	}
	for pos, v := range r.vals {
		e := math.Exp(r.halfBeta * (v - vmax))
		r.expVals[pos] = e
		r.invExpVals[pos] = 1 / e
	}
}

// trivial handles the bootstrap condition of Alg. 1 line 1: the stochastic
// search only starts once the arrived shards exceed both Nmin and the
// block capacity; otherwise the final committee simply permits everything
// that arrived. The check itself allocates nothing, so a solve that goes
// on to search pays one pass over the latencies for it.
func trivial(in *Instance) (Solution, bool) {
	n, load := 0, 0
	for i, l := range in.Latencies {
		if l <= in.DDL {
			n++
			load += in.Sizes[i]
		}
	}
	if load > in.Capacity || n < in.Nmin {
		return Solution{}, false
	}
	sel := make([]bool, len(in.Latencies))
	for i, l := range in.Latencies {
		sel[i] = l <= in.DDL
	}
	return NewSolution(in, sel), true
}

// loop advances all explorers in synchronized batches until convergence or
// the iteration cap, recording the global best utility after each round it
// improved. The eventCursor, when non-nil, injects join/leave events at
// their exact iterations (segments are truncated so no event falls inside
// a batch) and disables early convergence stopping — the online run keeps
// exploring through the full iteration budget, exactly like the previous
// per-round online loop.
func (r *run) loop(ev *eventCursor) []TracePoint {
	trace := make([]TracePoint, 0, 256)
	sinceImprove := 0
	iter := 0
	for iter < r.cfg.MaxIters {
		next := iter + syncRounds
		if next > r.cfg.MaxIters {
			next = r.cfg.MaxIters
		}
		forcedRound := -1
		if ev != nil {
			// Events due at round iter+1 fire before that round is
			// stepped, matching the old hook that ran at the top of every
			// round; the segment is then bounded so the next pending event
			// still lands on its exact round.
			if ev.applyDue(r, iter+1) {
				forcedRound = iter + 1
			}
			if bound := ev.nextAt() - 1; bound >= iter+1 && bound < next {
				next = bound
			}
		}
		r.stepSegment(iter, next)
		stopRound, stopped, _ := r.mergeSegment(iter, next, forcedRound, &trace, &sinceImprove, ev == nil)
		if stopped {
			iter = stopRound
			break
		}
		iter = next
	}
	r.iterations = iter
	trace = append(trace, TracePoint{Iteration: iter, Utility: r.globalUtil()})
	r.diag.Finalize()
	return trace
}

// stepSegment advances every explorer through transition rounds (a, b].
// With one worker (GOMAXPROCS 1, or one explorer) it runs inline;
// otherwise min(GOMAXPROCS, Γ) goroutines pick explorers off an atomic
// counter. Every explorer owns a split RNG stream and mergeSegment folds
// in a fixed order, so the worker count never changes a result bit.
// Explorers share no mutable state during a segment — they read the
// run's frozen caches and write only their own fields — so the only
// synchronization is the final WaitGroup barrier.
func (r *run) stepSegment(a, b int) {
	if b <= a {
		return
	}
	if r.workers <= 1 || len(r.explorers) <= 1 {
		for _, ex := range r.explorers {
			ex.stepBatch(a, b)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := int(next.Add(1)) - 1
				if g >= len(r.explorers) {
					return
				}
				r.explorers[g].stepBatch(a, b)
			}
		}()
	}
	wg.Wait()
}

// mergeSegment folds the explorers' improvement logs for rounds (a, b]
// into the global best in deterministic (round, explorer) order — the
// same order the serial kernel would have observed — so traces and
// results are bit-identical for every worker count. It walks the rounds
// to maintain the convergence window exactly; when the window closes at
// round t* < b, improvements recorded after t* are discarded, as if the
// run had stopped there. forcedRound, when ≥ 0, forces a trace point at
// that round (online event markers). Returns the stop round, whether the
// window closed, and whether the global best improved at all.
func (r *run) mergeSegment(a, b, forcedRound int, trace *[]TracePoint, sinceImprove *int, allowStop bool) (int, bool, bool) {
	cur := r.mergeCursors
	for g := range cur {
		cur[g] = 0
	}
	stopRound, stopped, anyImproved := b, false, false
	adopted := int64(0)
	for round := a + 1; round <= b && !stopped; round++ {
		improved := false
		for g, ex := range r.explorers {
			for cur[g] < len(ex.events) && ex.events[cur[g]].round == round {
				e := ex.events[cur[g]]
				cur[g]++
				if !r.global.have || e.util > r.global.util {
					r.global.util, r.global.sel, r.global.n, r.global.have = e.util, e.sel, e.n, true
					r.globalDirty = true
					improved = true
					adopted++
					if r.obs != nil {
						r.obs.Trace.Emit(obs.EvSwapAccept, "se", e.util, "")
					}
					if r.diag != nil {
						r.diag.RecordImprovement(round, e.util)
					}
				}
			}
		}
		if improved {
			anyImproved = true
			*sinceImprove = 0
		} else {
			*sinceImprove++
		}
		if trace != nil && (improved || round == forcedRound || len(*trace) == 0) {
			*trace = append(*trace, TracePoint{Iteration: round, Utility: r.globalUtil()})
		}
		if allowStop && *sinceImprove >= r.cfg.ConvergenceWindow {
			stopRound, stopped = round, true
		}
	}
	for _, ex := range r.explorers {
		// Recycle the segment's selection snapshots that nothing retains:
		// a snapshot stays out of the pool only while it is the global
		// best or the explorer's local best (the last event). Keeps the
		// steady-state round loop allocation-free.
		for _, e := range ex.events {
			if !sameSnapshot(e.sel, r.global.sel) && !sameSnapshot(e.sel, ex.bestSel) {
				ex.selPool = append(ex.selPool, e.sel)
			}
		}
		ex.events = ex.events[:0]
	}
	r.publishBest()
	var swaps, resets, starved, raceErrs int64
	if r.obs != nil || r.diag != nil {
		// Collect the per-explorer tallies once for every consumer; the
		// explorers are quiescent between segments.
		for _, ex := range r.explorers {
			swaps += ex.statSwaps
			resets += ex.statResets
			starved += ex.statStarved
			raceErrs += ex.statRaceErr
			ex.statSwaps, ex.statResets, ex.statStarved, ex.statRaceErr = 0, 0, 0, 0
		}
		if r.obs != nil {
			r.flushObs(a, b, adopted, swaps, resets, starved, raceErrs)
		}
		if r.diag != nil {
			r.flushDiag(a, b, swaps, resets, starved, raceErrs)
		}
	}
	return stopRound, stopped, anyImproved
}

// sameSnapshot reports whether two selection snapshots share a backing
// array (identity, not equality — the recycler must never pool a slice
// the global or local best still references).
func sameSnapshot(a, b []bool) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// flushObs folds the segment's tallies into the attached observer. Runs
// single-threaded between segments, so the atomic instruments are
// touched once per segment, never in the round loop.
func (r *run) flushObs(a, b int, adopted, swaps, resets, starved, raceErrs int64) {
	o := r.obs
	rounds := int64(b - a)
	o.Rounds.Add(rounds)
	o.ExplorerRounds.Add(rounds * int64(len(r.explorers)))
	o.Swaps.Add(swaps)
	o.Resets.Add(resets)
	o.ProposalsStarved.Add(starved)
	o.RaceErrors.Add(raceErrs)
	o.Merges.Inc()
	o.Improvements.Add(adopted)
	best := r.globalUtil()
	o.BestUtility.Set(best)
	o.Trace.Emit(obs.EvSERound, "se", float64(rounds), "")
	if resets > 0 {
		o.Trace.Emit(obs.EvReset, "se", float64(resets), "")
	}
	if starved > 0 {
		o.Trace.Emit(obs.EvReset, "se", float64(starved), "starved")
	}
	if raceErrs > 0 {
		o.Trace.Emit(obs.EvReset, "se", float64(raceErrs), "race-error")
	}
	o.Trace.Emit(obs.EvSegmentMerge, "se", best, "")
}

// flushDiag hands the segment to the convergence diagnostics: drains
// the probes and records one window carrying the per-cardinality best
// utilities across explorers (the f_n time-series sample). Runs
// single-threaded between segments.
func (r *run) flushDiag(a, b int, swaps, resets, starved, raceErrs int64) {
	pts := r.diagScratch[:0]
	if len(r.explorers) > 0 {
		// Explorers share one thread layout (same cardinality list in the
		// same order), so index i is cardinality-aligned across them.
		base := r.explorers[0].threads
		for i, th := range base {
			best, have := math.Inf(-1), false
			for _, ex := range r.explorers {
				if i < len(ex.threads) && ex.threads[i].active {
					if u := ex.threads[i].util; !have || u > best {
						best, have = u, true
					}
				}
			}
			if have {
				pts = append(pts, seobs.ThreadPoint{N: th.n, Utility: best})
			}
		}
	}
	r.diagScratch = pts
	r.diag.Flush(seobs.FlushArgs{
		From: a, To: b,
		Swaps: swaps, Resets: resets,
		Starved: starved, RaceErrors: raceErrs,
		BestUtility: r.globalUtil(), HaveBest: r.global.have,
		Threads: pts,
	})
}

// adoptLocal folds one explorer's local best into the global tracker;
// only used at sync points (construction and dynamic events).
func (r *run) adoptLocal(ex *explorer) {
	if !ex.haveBest {
		return
	}
	if !r.global.have || ex.bestUtil > r.global.util {
		r.global.util, r.global.sel, r.global.n, r.global.have = ex.bestUtil, ex.bestSel, ex.bestN, true
		r.globalDirty = true
	}
}

// publishBest stores an immutable snapshot of the global best for
// lock-free readers.
func (r *run) publishBest() {
	if !r.globalDirty {
		return
	}
	r.globalDirty = false
	if !r.global.have {
		r.snap.Store(nil)
		return
	}
	r.snap.Store(&bestSnapshot{util: r.global.util, sel: r.global.sel, n: r.global.n})
}

// globalUtil returns the coordinator-side best utility, or -Inf.
func (r *run) globalUtil() float64 {
	if r.global.have {
		return r.global.util
	}
	return math.Inf(-1)
}

// bestObserved returns the best utility seen so far, or -Inf. It reads
// the published snapshot, so it is safe from any goroutine even while a
// segment is being stepped.
func (r *run) bestObserved() float64 {
	if s := r.snap.Load(); s != nil {
		return s.util
	}
	return math.Inf(-1)
}

// best converts the best candidate-space selection into an instance-space
// Solution. It returns ErrInfeasible when no thread ever produced a
// selection meeting Nmin.
func (r *run) best() (Solution, error) {
	if !r.global.have {
		return Solution{}, fmt.Errorf("%w: |I|=%d Nmin=%d capacity=%d",
			ErrInfeasible, len(r.candidates), r.in.Nmin, r.in.Capacity)
	}
	sel := make([]bool, r.in.NumShards())
	for pos, on := range r.global.sel {
		if on {
			sel[r.candidates[pos]] = true
		}
	}
	sol := NewSolution(r.in, sel)
	sol.Iterations = r.iterations
	return sol, nil
}

// improvement is one local-best improvement recorded by an explorer
// during a segment: round number, the new utility, and an immutable
// snapshot of the selection. The coordinator replays these logs in
// (round, explorer) order at the sync point.
type improvement struct {
	round int
	util  float64
	n     int
	sel   []bool // immutable snapshot
}

// explorer runs one independent copy of the designed Markov chain: one
// solution thread f_n per cardinality n ∈ {1..K−1} (Alg. 1 line 3), each
// holding an exponential timer whose rate follows equation (8).
//
// During a segment an explorer is owned by exactly one worker goroutine;
// everything it mutates (threads, RNG, local best, event log, scratch)
// lives here, never on the run.
type explorer struct {
	run *run
	rng *randx.RNG
	// draw serves the hot-loop samples (one race uniform plus one
	// proposal word per thread per round) from block-buffered words of
	// rng; cold paths (initialization, local-best resets) keep drawing
	// from rng directly.
	draw  *randx.Buffered
	probe *seobs.Probe

	threads []*thread
	// expRateBases, weights, and logRates are the structure-of-arrays
	// view of the race-relevant thread state, index-aligned with threads:
	// expRateBases[i] caches exp(rateBase_i) = |I|−n_i; weights
	// is filled by the fused rearm pass (linear race) or per round (log
	// fallback); logRates only serves the log-space fallback.
	expRateBases []float64
	weights      []float64
	logRates     []float64
	// weightSum is the running Σ weights maintained by the fused rearm —
	// the race's total rate, ready before the round starts.
	weightSum float64

	// Local best tracker (sharded global best): merged into run.global at
	// sync points via the events log.
	bestUtil float64
	bestSel  []bool
	bestN    int
	haveBest bool
	events   []improvement

	// selPool recycles selection snapshots whose improvement events were
	// merged and superseded, keeping offer() allocation-free at steady
	// state; invalidated (dropped) whenever the candidate count changes.
	selPool [][]bool
	// initIdx, initSwaps, and initPicks are the reused Fisher-Yates
	// scratch of initThread: initIdx holds the identity permutation
	// between calls, initSwaps the swap log that restores it after each
	// attempt, and initPicks the greedy fallback's selection (thread
	// construction retries dominate solve setup without them).
	initIdx   []int
	initSwaps []int
	initPicks []int

	// statSwaps, statResets, statStarved, and statRaceErr are plain
	// per-segment tallies (each explorer is owned by one goroutine during
	// a segment); the run flushes them into the attached observer at
	// merge time. statStarved counts rounds where no thread had an armed
	// proposal (every Set-timer retry budget exhausted); statRaceErr
	// counts rounds the race itself failed to pick a winner (degenerate
	// weights). Both kinds of round fall through to a plain re-arm.
	statSwaps   int64
	statResets  int64
	statStarved int64
	statRaceErr int64
}

// thread is one parallel feasible solution f_n with its proposed swap.
type thread struct {
	n      int
	active bool

	selected []bool // over candidate positions
	selIdx   []int  // positions currently selected
	unselIdx []int  // positions currently unselected
	posInSel []int  // position → index in selIdx (or -1)
	posInUns []int  // position → index in unselIdx (or -1)

	load int
	util float64

	// rateBase caches log(|I_j| − n), the proposal-independent part of
	// the thread's log timer rate; refreshed whenever the candidate count
	// changes (join/leave), never in the hot loop. The linear-space race
	// uses its exponential from the explorer's expRateBases array.
	rateBase float64

	// Current proposal (Set-timer, Alg. 3): swap out selIdx ĩ for
	// unselected ï. proposalOK is false when no feasible swap was found
	// within the retry budget — the thread's timer never fires this
	// round.
	out, in    int
	dU         float64
	proposalOK bool
}

func newExplorer(r *run, rng *randx.RNG) *explorer {
	ex := &explorer{run: r, rng: rng, draw: randx.NewBuffered(rng), bestUtil: math.Inf(-1)}
	ex.threads = make([]*thread, 0, len(r.cards))
	for _, n := range r.cards {
		th := ex.initThread(n)
		ex.threads = append(ex.threads, th)
		if th.active {
			ex.offer(th, 0)
		}
	}
	ex.resizeScratch()
	ex.refreshRateBases()
	ex.rearm()
	return ex
}

// resizeScratch (re)allocates the structure-of-arrays race state to the
// current thread count; called at construction and whenever the thread
// layout changes (joins, leaves), never per round.
func (ex *explorer) resizeScratch() {
	n := len(ex.threads)
	ex.expRateBases = make([]float64, n)
	ex.weights = make([]float64, n)
	ex.logRates = make([]float64, n)
}

// threadCardinalities returns the cardinalities that receive a solution
// thread: all of 1..k−1 when they fit under cap, otherwise an evenly
// spaced lattice of cap values covering [1, k−1].
func threadCardinalities(k, maxThreads int) []int {
	total := k - 1
	if total <= 0 {
		return nil
	}
	if total <= maxThreads {
		out := make([]int, total)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	out := make([]int, 0, maxThreads)
	last := 0
	for i := 0; i < maxThreads; i++ {
		n := 1 + i*(total-1)/(maxThreads-1)
		if n != last {
			out = append(out, n)
			last = n
		}
	}
	return out
}

// initUniformAttempts caps the uniform rejection-sampling phase of
// initThread and initGreedyAttempts its greedy fallback; past both, the
// n smallest candidates seed the thread deterministically. The ladder
// bounds construction at O(attempts·draws + k), and it never abandons a
// feasible cardinality.
const (
	initUniformAttempts = 8
	initGreedyAttempts  = 4
)

// initThread is Initialization() (Alg. 2): draw random n-subsets until one
// satisfies the capacity constraint, down the ladder above. Only an
// infeasible cardinality stays inactive (the trimmed state space of
// Section V).
func (ex *explorer) initThread(n int) *thread {
	r := ex.run
	k := len(r.candidates)
	th := &thread{n: n}
	if n > k || r.minLoad[n] > r.in.Capacity {
		// Even the n smallest candidates exceed capacity: cardinality n
		// is infeasible, no sample can succeed.
		return th
	}
	if cap(ex.initIdx) < k {
		ex.initIdx = make([]int, k)
		for i := range ex.initIdx {
			ex.initIdx[i] = i
		}
		ex.initSwaps = make([]int, 0, k)
		ex.initPicks = make([]int, 0, k)
	}
	// idx holds the identity permutation between attempts (restored by
	// undoing the swaps each partial Fisher-Yates made, which is O(draws)
	// instead of an O(k) rewrite per attempt).
	idx := ex.initIdx[:k]
	for attempt := 0; attempt < initUniformAttempts; attempt++ {
		// Partial Fisher-Yates, aborting as soon as the running load
		// exceeds capacity: any prefix over capacity dooms the full
		// sample (sizes are non-negative), so the accepted distribution
		// is still uniform over feasible n-subsets.
		swaps := ex.initSwaps[:0]
		load := 0
		for i := 0; i < n; i++ {
			j := i + ex.draw.Intn(k-i)
			idx[i], idx[j] = idx[j], idx[i]
			swaps = append(swaps, j)
			load += r.sizes[idx[i]]
			if load > r.in.Capacity {
				break
			}
		}
		ok := len(swaps) == n && load <= r.in.Capacity
		if ok {
			th.adopt(r, idx[:n])
			th.active = true
		}
		for i := len(swaps) - 1; i >= 0; i-- {
			idx[i], idx[swaps[i]] = idx[swaps[i]], idx[i]
		}
		ex.initSwaps = swaps[:0]
		if ok {
			return th
		}
	}
	// Greedy fallback for tight instances: walk one random permutation
	// and take every candidate that still fits. Mildly biased toward
	// small candidates, but the chain forgets its start state — and a
	// diverse active thread beats an abandoned one.
	for attempt := 0; attempt < initGreedyAttempts; attempt++ {
		swaps := ex.initSwaps[:0]
		picks := ex.initPicks[:0]
		load := 0
		for i := 0; i < k && len(picks) < n; i++ {
			j := i + ex.draw.Intn(k-i)
			idx[i], idx[j] = idx[j], idx[i]
			swaps = append(swaps, j)
			if pos := idx[i]; load+r.sizes[pos] <= r.in.Capacity {
				load += r.sizes[pos]
				picks = append(picks, pos)
			}
		}
		ok := len(picks) == n
		if ok {
			th.adopt(r, picks)
			th.active = true
		}
		for i := len(swaps) - 1; i >= 0; i-- {
			idx[i], idx[swaps[i]] = idx[swaps[i]], idx[i]
		}
		ex.initSwaps, ex.initPicks = swaps[:0], picks[:0]
		if ok {
			return th
		}
	}
	// Deterministic last resort: the n smallest candidates, feasible by
	// the minLoad gate above. Every feasible cardinality therefore
	// always activates its thread.
	th.adopt(r, r.sizeOrder[:n])
	th.active = true
	return th
}

// adopt installs a selection given by candidate positions, reusing the
// thread's slices when they are large enough (a warm start re-adopts
// threads initThread has just built).
func (th *thread) adopt(r *run, pick []int) {
	k := len(r.candidates)
	if cap(th.selected) >= k && cap(th.posInSel) >= k && cap(th.posInUns) >= k {
		th.selected = th.selected[:k]
		clear(th.selected)
		th.posInSel = th.posInSel[:k]
		th.posInUns = th.posInUns[:k]
	} else {
		th.selected = make([]bool, k)
		th.posInSel = make([]int, k)
		th.posInUns = make([]int, k)
	}
	for i := range th.posInSel {
		th.posInSel[i] = -1
		th.posInUns[i] = -1
	}
	th.selIdx = th.selIdx[:0]
	th.unselIdx = th.unselIdx[:0]
	th.load = 0
	th.util = 0
	for _, pos := range pick {
		th.selected[pos] = true
	}
	for pos := 0; pos < k; pos++ {
		if th.selected[pos] {
			th.posInSel[pos] = len(th.selIdx)
			th.selIdx = append(th.selIdx, pos)
			th.load += r.sizes[pos]
			th.util += r.vals[pos]
		} else {
			th.posInUns[pos] = len(th.unselIdx)
			th.unselIdx = append(th.unselIdx, pos)
		}
	}
}

// refreshRateBases recomputes every thread's cached log(|I_j| − n) term
// and its exponential |I_j| − n in the structure-of-arrays race state;
// called after construction and after every join/leave (the only times
// k changes).
func (ex *explorer) refreshRateBases() {
	k := len(ex.run.candidates)
	for i, th := range ex.threads {
		if k > th.n {
			th.rateBase = math.Log(float64(k - th.n))
			ex.expRateBases[i] = float64(k - th.n)
		} else {
			th.rateBase = math.Inf(-1)
			ex.expRateBases[i] = 0
		}
	}
}

// setTimer is Set-timer() (Alg. 3): choose a random selected shard ĩ and a
// random unselected shard ï, estimate the utility after swapping, and arm
// the exponential timer with mean exp(τ − ½β(U_f' − U_f)) / (|I_j| − n).
// τ is fixed at the paper's default 0: it scales every thread's rate by
// the same e^{−τ}, and the race below picks a winner in proportion to
// the rates without sampling the elapsed time, so τ cannot change which
// swap fires.
// Swaps that would violate the capacity constraint are resampled a bounded
// number of times. The (ĩ, ï) pair is drawn from a single block-buffered
// 64-bit draw (PairIntn) — the proposal distribution is the same
// independent uniform pair as two Intn calls.
func (ex *explorer) setTimer(th *thread) {
	r := ex.run
	th.proposalOK = false
	nSel, nUns := len(th.selIdx), len(th.unselIdx)
	if nSel == 0 || nUns == 0 {
		return
	}
	slack := r.in.Capacity - th.load
	for attempt := 0; attempt < r.cfg.SwapRetries; attempt++ {
		oi, ii := ex.draw.PairIntn(nSel, nUns)
		outPos := th.selIdx[oi]
		inPos := th.unselIdx[ii]
		if r.sizes[inPos]-r.sizes[outPos] > slack {
			continue
		}
		th.out = outPos
		th.in = inPos
		th.dU = r.vals[inPos] - r.vals[outPos]
		th.proposalOK = true
		return
	}
}

// rearm refreshes every active thread's timer — the RESET broadcast of
// Alg. 1 lines 19–20 — and, on the linear-space path, evaluates each
// fresh proposal's race weight in the same pass from the cached
// aggregates: weight = expRateBases[i]·expVals[ï]·invExpVals[ĩ] =
// exp(rateBase + ½β·ΔU), with the running total kept alongside. The next
// round's race is then a single uniform draw and a partial CDF walk —
// the former per-round log-rate and exponentiation sweeps are gone.
//
// Proposal freshness is load-bearing: if losers kept their proposals
// until they won, the per-thread distribution of executed swaps would
// collapse to uniform (a proposal's low win rate is exactly compensated
// by the rounds it survives), erasing the Gibbs bias the rates encode.
// The hot-path savings are taken on the race side instead, where
// memorylessness makes them exact.
func (ex *explorer) rearm() {
	ex.statResets++
	r := ex.run
	if !r.linearRace {
		for _, th := range ex.threads {
			if th.active {
				ex.setTimer(th)
			}
		}
		return
	}
	// The linear path open-codes setTimer so the proposal draw, the
	// feasibility check, and the weight evaluation share one pass over
	// hoisted locals — the per-thread call and the re-loads of the shared
	// caches are what the profile charges for otherwise.
	expVals, invExpVals := r.expVals, r.invExpVals
	sizes, vals := r.sizes, r.vals
	capacity, retries := r.in.Capacity, r.cfg.SwapRetries
	draw := ex.draw
	sum := 0.0
	for i, th := range ex.threads {
		w := 0.0
		if th.active {
			th.proposalOK = false
			selIdx, unselIdx := th.selIdx, th.unselIdx
			nSel, nUns := len(selIdx), len(unselIdx)
			if nSel > 0 && nUns > 0 {
				slack := capacity - th.load
				for attempt := 0; attempt < retries; attempt++ {
					oi, ii := draw.PairIntn(nSel, nUns)
					outPos := selIdx[oi]
					inPos := unselIdx[ii]
					if sizes[inPos]-sizes[outPos] > slack {
						continue
					}
					th.out = outPos
					th.in = inPos
					th.dU = vals[inPos] - vals[outPos]
					th.proposalOK = true
					w = ex.expRateBases[i] * expVals[inPos] * invExpVals[outPos]
					break
				}
			}
		}
		ex.weights[i] = w
		sum += w
	}
	ex.weightSum = sum
}

// stepRound performs one transition round: every armed timer races, the
// winning thread swaps its proposed pair (State Transit), and the RESET
// broadcast re-arms every timer (Alg. 1 lines 13–20). Improvements over
// the explorer's local best are recorded in the event log under the given
// round number for the coordinator's deterministic merge.
//
// The race resolves the minimum of exponential clocks by categorical
// sampling: P(win) ∝ rate = exp(rateBase + ½β·ΔU). On the default
// linear-space path the weights and their sum were already evaluated by
// the fused rearm pass from the cached per-candidate exponentials, so
// the race is one uniform draw and a partial CDF walk — no per-round
// sweep, no math.Exp, statistically identical to the former max-centered
// exponentiation (both sample the exact same categorical distribution).
// When the value spread puts the ratio trick outside float64 range the
// log-space fallback re-derives the weights per round exactly as before.
// The race's elapsed time is never consumed (rounds are the clock), so
// it is not sampled.
func (ex *explorer) stepRound(round int) {
	if !ex.run.linearRace {
		ex.stepRoundLog(round)
		return
	}
	total := ex.weightSum
	if !(total > 0) || math.IsInf(total, 1) {
		// total == 0: no armed proposal anywhere (every Set-timer retry
		// budget exhausted) — a starved round. NaN/Inf: degenerate
		// weights the CDF walk cannot resolve. Both re-arm and hope a
		// future round finds feasible swaps.
		if total == 0 {
			ex.statStarved++
		} else {
			ex.statRaceErr++
		}
		ex.rearm()
		return
	}
	target := ex.draw.Float64() * total
	winner := -1
	for i, w := range ex.weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target <= 0 {
			winner = i
			break
		}
	}
	if winner < 0 {
		// Floating-point slack: the partial sums rounded below the total;
		// take the last positive-weight thread, mirroring WeightedPick.
		for i := len(ex.weights) - 1; i >= 0; i-- {
			if ex.weights[i] > 0 {
				winner = i
				break
			}
		}
		if winner < 0 {
			ex.statRaceErr++
			ex.rearm()
			return
		}
	}
	ex.finishRound(winner, round)
}

// stepRoundLog is the numerically hardened race for instances whose
// ½β·ΔU range exceeds the linear-space budget: log rates are swept, the
// max subtracted, and the weights exponentiated per round — the
// pre-cache kernel, kept as the fallback.
func (ex *explorer) stepRoundLog(round int) {
	h := ex.run.halfBeta
	maxLR := math.Inf(-1)
	for i, th := range ex.threads {
		lr := math.Inf(-1)
		if th.active && th.proposalOK {
			lr = th.rateBase + h*th.dU
		}
		ex.logRates[i] = lr
		if lr > maxLR {
			maxLR = lr
		}
	}
	if math.IsInf(maxLR, -1) {
		// No timer can fire: all threads inactive or proposal-less.
		ex.statStarved++
		ex.rearm()
		return
	}
	for i, lr := range ex.logRates {
		if math.IsInf(lr, -1) {
			ex.weights[i] = 0
		} else {
			ex.weights[i] = math.Exp(lr - maxLR)
		}
	}
	winner, err := ex.rng.WeightedPick(ex.weights)
	if err != nil {
		ex.statRaceErr++
		ex.rearm()
		return
	}
	ex.finishRound(winner, round)
}

// finishRound executes the race winner's swap, records it, offers the
// result to the local best, and re-arms every timer for the next round.
func (ex *explorer) finishRound(winner, round int) {
	th := ex.threads[winner]
	th.applySwap(ex.run)
	ex.statSwaps++
	if ex.probe != nil {
		ex.probe.RecordSwap(winner, th.out, th.in, th.util)
	}
	ex.offer(th, round)
	ex.rearm()
}

// stepBatch advances the explorer through rounds (a, b]. When the d_TV
// estimator is live the loop records one dwell sample per thread per
// round, weighted by the round's expected holding time 1/Σw so the
// histogram estimates continuous-time occupancy rather than the
// embedded jump chain's (the jump chain visits f in proportion to
// p*(f)·Σw(f), so it under-counts the mode, where the chain sits with a
// small total rate while the jump chain still makes one swap per round).
// On the linear race path the weights are true rates — the centering
// term cancels in the exp-ratio — so 1/ex.weightSum is exact; the
// log-rate fallback keeps weight 1, which only arises at exponent scales
// the pinning tests never reach. Otherwise it is the plain hot loop.
func (ex *explorer) stepBatch(a, b int) {
	if p := ex.probe; p.TracksVisits() {
		linear := ex.run.linearRace
		for round := a + 1; round <= b; round++ {
			ex.stepRound(round)
			w := 1.0
			if linear && ex.weightSum > 0 {
				w = 1 / ex.weightSum
			}
			p.RecordRound(w)
		}
		return
	}
	for round := a + 1; round <= b; round++ {
		ex.stepRound(round)
	}
}

// offer records a thread's state against the explorer's local best
// (Alg. 1 lines 22–27, sharded per explorer). Improvements during a
// segment (round > 0) are appended to the event log with an immutable
// selection snapshot so the coordinator can merge and, if the convergence
// window closed mid-segment, truncate them exactly.
func (ex *explorer) offer(th *thread, round int) bool {
	if th.n < ex.run.in.Nmin {
		return false
	}
	if ex.haveBest && th.util <= ex.bestUtil {
		return false
	}
	var snap []bool
	if n := len(ex.selPool); n > 0 {
		// Pool slices always match the live candidate count (the pool is
		// dropped whenever it changes), so a recycled snapshot is a copy
		// destination, not an allocation.
		snap = ex.selPool[n-1]
		ex.selPool = ex.selPool[:n-1]
		copy(snap, th.selected)
	} else {
		snap = append([]bool(nil), th.selected...)
	}
	ex.bestSel = snap
	ex.bestUtil = th.util
	ex.bestN = th.n
	ex.haveBest = true
	if round > 0 {
		ex.events = append(ex.events, improvement{round: round, util: th.util, n: th.n, sel: snap})
	}
	return true
}

// resetLocalBest drops the explorer's local best (its stored positions
// went stale after a leave) and re-seeds it from the surviving threads.
func (ex *explorer) resetLocalBest() {
	ex.haveBest = false
	ex.bestUtil = math.Inf(-1)
	ex.bestSel = nil
	ex.events = ex.events[:0]
	for _, th := range ex.threads {
		if th.active {
			ex.offer(th, 0)
		}
	}
}

// applySwap executes the armed proposal: x_ĩ ← 0, x_ï ← 1.
func (th *thread) applySwap(r *run) {
	outPos, inPos := th.out, th.in

	th.selected[outPos] = false
	th.selected[inPos] = true
	th.load += r.sizes[inPos] - r.sizes[outPos]
	th.util += th.dU

	// Maintain the index lists in O(1) by swapping with the tail.
	si := th.posInSel[outPos]
	last := th.selIdx[len(th.selIdx)-1]
	th.selIdx[si] = last
	th.posInSel[last] = si
	th.selIdx = th.selIdx[:len(th.selIdx)-1]
	th.posInSel[outPos] = -1

	ui := th.posInUns[inPos]
	lastU := th.unselIdx[len(th.unselIdx)-1]
	th.unselIdx[ui] = lastU
	th.posInUns[lastU] = ui
	th.unselIdx = th.unselIdx[:len(th.unselIdx)-1]
	th.posInUns[inPos] = -1

	th.posInSel[inPos] = len(th.selIdx)
	th.selIdx = append(th.selIdx, inPos)
	th.posInUns[outPos] = len(th.unselIdx)
	th.unselIdx = append(th.unselIdx, outPos)
}
