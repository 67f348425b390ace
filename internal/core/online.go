package core

import (
	"fmt"
	"math"
	"sort"

	"mvcom/internal/obs"
)

// EventKind distinguishes dynamic committee events (Alg. 1 lines 8–12).
type EventKind int

// The two dynamic events the online algorithm handles.
const (
	// EventJoin is a committee submitting its shard after the run began
	// (a new candidate enters I_j).
	EventJoin EventKind = iota + 1
	// EventLeave is a committee failing or withdrawing (Section V); every
	// solution containing it is trimmed from the state space.
	EventLeave
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one dynamic committee event delivered at a given iteration.
type Event struct {
	// AtIteration is the transition round at which the event fires.
	AtIteration int
	// Kind is join or leave.
	Kind EventKind
	// Index identifies the shard. For EventLeave it must reference an
	// existing shard; for EventJoin it is ignored (the shard is appended)
	// unless it names a previously departed shard to rejoin.
	Index int
	// Size and Latency describe a joining shard.
	Size    int
	Latency float64
}

// eventCursor feeds a sorted event stream into the batched loop. Events
// are applied at synchronization points only; the loop truncates every
// segment at the next pending event's round, so each event still fires at
// its exact iteration.
type eventCursor struct {
	events []Event // sorted by AtIteration, ties in slice order
	next   int
	err    error
}

// applyDue applies every event scheduled at or before the given round and
// reports whether any fired. The first apply error is retained.
func (c *eventCursor) applyDue(r *run, round int) bool {
	applied := false
	for c.next < len(c.events) && c.events[c.next].AtIteration <= round {
		if err := r.applyEvent(c.events[c.next]); err != nil && c.err == nil {
			c.err = err
		}
		c.next++
		applied = true
	}
	return applied
}

// nextAt returns the round of the next pending event, or MaxInt.
func (c *eventCursor) nextAt() int {
	if c.next < len(c.events) {
		return c.events[c.next].AtIteration
	}
	return math.MaxInt
}

// SolveOnline runs the SE algorithm while handling a stream of dynamic
// join/leave events. Events are applied in AtIteration order (ties keep
// slice order). The returned solution reflects the final candidate set;
// the trace records the utility dips and re-convergences the paper plots
// in Figs. 9 and 14.
func (se *SE) SolveOnline(in Instance, events []Event) (Solution, []TracePoint, error) {
	if err := in.Validate(); err != nil {
		return Solution{}, nil, err
	}
	run, err := newRun(&in, se.cfg)
	if err != nil {
		return Solution{}, nil, err
	}
	ordered := append([]Event(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].AtIteration < ordered[j].AtIteration
	})
	cursor := &eventCursor{events: ordered}
	trace := run.loop(cursor)
	if cursor.err != nil {
		return Solution{}, trace, cursor.err
	}
	sol, err := run.best()
	if err != nil {
		return Solution{}, trace, err
	}
	return sol, trace, nil
}

// applyEvent mutates the candidate set and repairs explorer state. It is
// only called at synchronization points, never while a segment is being
// stepped.
func (r *run) applyEvent(ev Event) error {
	switch ev.Kind {
	case EventJoin:
		return r.applyJoin(ev)
	case EventLeave:
		return r.applyLeave(ev)
	default:
		return fmt.Errorf("core: unknown event kind %d", ev.Kind)
	}
}

// applyJoin appends a new shard (or revives a departed one) to the
// instance and the candidate set, then extends every explorer with the
// new maximum-cardinality thread. Existing solution threads keep their
// current selections — the new shard starts unselected everywhere and is
// discovered through future swaps, which is what makes the online curves
// climb after each join.
func (r *run) applyJoin(ev Event) error {
	if ev.Size < 0 || ev.Latency < 0 {
		return fmt.Errorf("core: join event with invalid shard (size=%d latency=%v)", ev.Size, ev.Latency)
	}
	var idx int
	if ev.Index >= 0 && ev.Index < r.in.NumShards() {
		// Rejoin of a departed committee: refresh its features.
		idx = ev.Index
		for _, pos := range r.candidates {
			if pos == idx {
				return fmt.Errorf("core: join event for shard %d which is already live", idx)
			}
		}
		r.in.Sizes[idx] = ev.Size
		r.in.Latencies[idx] = ev.Latency
	} else {
		idx = r.in.NumShards()
		r.in.Sizes = append(r.in.Sizes, ev.Size)
		r.in.Latencies = append(r.in.Latencies, ev.Latency)
	}
	if ev.Latency > r.in.DDL {
		// A straggler beyond the deadline never becomes a candidate; the
		// instance remembers it for the next epoch but the chain ignores
		// it.
		return nil
	}
	r.candidates = append(r.candidates, idx)
	r.cards = append(r.cards, len(r.candidates)-1)
	r.refreshCandidateCaches()
	r.refreshBetaEff()
	if r.obs != nil {
		r.obs.Joins.Inc()
		r.obs.Trace.Emit(obs.EvShardJoin, "se", float64(idx), "")
	}
	for _, ex := range r.explorers {
		ex.extendForJoin()
		r.adoptLocal(ex)
	}
	// Re-offer the full selection under the grown candidate set.
	r.offerFullIfFeasible()
	r.publishBest()
	r.rebindDiag(ev.AtIteration, "join", idx)
	return nil
}

// applyLeave removes a shard from the candidate set. Following Section V,
// the solution space is trimmed: every thread whose selection contains the
// failed shard is re-initialized without it, and the largest-cardinality
// thread disappears.
func (r *run) applyLeave(ev Event) error {
	pos := -1
	for p, idx := range r.candidates {
		if idx == ev.Index {
			pos = p
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("core: leave event for unknown or already-departed shard %d", ev.Index)
	}
	last := len(r.candidates) - 1
	// Swap-remove the candidate; positions shift for the former tail.
	r.candidates[pos] = r.candidates[last]
	r.candidates = r.candidates[:last]
	movedFrom := last // candidate position that moved into pos
	r.refreshCandidateCaches()
	r.refreshBetaEff()
	if r.obs != nil {
		r.obs.Leaves.Inc()
		r.obs.Trace.Emit(obs.EvShardLeave, "se", float64(ev.Index), "")
	}
	for _, ex := range r.explorers {
		ex.shrinkForLeave(pos, movedFrom)
	}
	// The top cardinality disappeared with the candidate.
	maxN := len(r.candidates) - 1
	keepCards := r.cards[:0]
	for _, n := range r.cards {
		if n <= maxN {
			keepCards = append(keepCards, n)
		}
	}
	r.cards = keepCards
	// The recorded bests may reference the departed shard: invalidate and
	// let the trimmed chain re-discover (the paper's utility dip).
	r.invalidateBest()
	r.offerFullIfFeasible()
	r.publishBest()
	r.rebindDiag(ev.AtIteration, "leave", ev.Index)
	return nil
}

// rebindDiag re-attaches the convergence diagnostics after a dynamic
// event: the event is marked (with the post-event best — the bottom of
// a leave's dip), the d_TV state restarts against the new candidate
// set, and every probe is rebuilt around the repaired threads.
func (r *run) rebindDiag(round int, kind string, index int) {
	if r.diag == nil {
		return
	}
	r.diag.RecordEvent(round, kind, index, r.globalUtil(), r.global.have)
	r.diag.Rebind(r.diagInfo())
	r.attachProbes()
}

// invalidateBest drops the stored global and per-explorer bests (their
// candidate positions went stale after a leave) and re-seeds them from
// the surviving threads.
func (r *run) invalidateBest() {
	r.global.have = false
	r.global.util = math.Inf(-1)
	r.global.sel = nil
	r.globalDirty = true
	for _, ex := range r.explorers {
		ex.resetLocalBest()
		r.adoptLocal(ex)
	}
}

// offerFullIfFeasible re-evaluates the all-candidates selection f_|I|
// directly against the global best; it belongs to the run, not any
// explorer (Alg. 1 line 25).
func (r *run) offerFullIfFeasible() {
	k := len(r.candidates)
	if k == 0 || k < r.in.Nmin {
		return
	}
	load, util := 0, 0.0
	for pos := range r.candidates {
		load += r.sizes[pos]
		util += r.vals[pos]
	}
	if load > r.in.Capacity {
		return
	}
	if !r.global.have || util > r.global.util {
		full := make([]bool, k)
		for pos := range full {
			full[pos] = true
		}
		r.global.util, r.global.sel, r.global.n, r.global.have = util, full, k, true
		r.globalDirty = true
	}
}

// extendForJoin grows every thread's candidate-position arrays by one
// (the new position starts unselected) and adds the new maximum
// cardinality thread f_{K-1}. New feasible threads are offered to the
// explorer's local best; the caller folds it into the global tracker.
func (ex *explorer) extendForJoin() {
	k := len(ex.run.candidates)
	newPos := k - 1
	for _, th := range ex.threads {
		if th.selected == nil {
			continue
		}
		th.selected = append(th.selected, false)
		th.posInSel = append(th.posInSel, -1)
		th.posInUns = append(th.posInUns, len(th.unselIdx))
		th.unselIdx = append(th.unselIdx, newPos)
	}
	// New top cardinality n = K-1 (threads exist for 1..K-1).
	th := ex.initThread(k - 1)
	ex.threads = append(ex.threads, th)
	if th.active {
		ex.offer(th, 0)
	}
	// Pooled snapshots were sized for the old candidate count.
	ex.selPool = nil
	ex.resizeScratch()
	ex.refreshRateBases()
	ex.rearm()
}

// shrinkForLeave repairs threads after candidate position pos was
// swap-removed (former tail position movedFrom now lives at pos). Threads
// containing the departed shard are re-initialized from scratch at the
// same cardinality; the rest only remap positions. The largest
// cardinality thread is dropped (K shrank by one). Local-best re-seeding
// happens afterwards in invalidateBest.
func (ex *explorer) shrinkForLeave(pos, movedFrom int) {
	k := len(ex.run.candidates) // already shrunk
	keep := ex.threads[:0]
	for _, th := range ex.threads {
		if th.n > k-1 {
			continue // cardinality no longer exists
		}
		if !th.active || th.selected == nil || th.selected[pos] {
			// Inactive cardinality, or the solution contained the failed
			// shard: trimmed from the space; re-initialize this
			// cardinality in the trimmed space (Alg. 1 line 11).
			keep = append(keep, ex.initThread(th.n))
			continue
		}
		th.removePosition(pos, movedFrom)
		keep = append(keep, th)
	}
	ex.threads = keep
	// Pooled snapshots were sized for the old candidate count.
	ex.selPool = nil
	ex.resizeScratch()
	ex.refreshRateBases()
	ex.rearm()
}

// removePosition deletes candidate position pos (unselected in this
// thread) and remaps the moved tail position movedFrom to pos.
func (th *thread) removePosition(pos, movedFrom int) {
	// Remove pos from the unselected list.
	ui := th.posInUns[pos]
	lastU := th.unselIdx[len(th.unselIdx)-1]
	th.unselIdx[ui] = lastU
	th.posInUns[lastU] = ui
	th.unselIdx = th.unselIdx[:len(th.unselIdx)-1]
	th.posInUns[pos] = -1

	if movedFrom != pos {
		// Candidate formerly at movedFrom now sits at pos: rewrite its
		// bookkeeping under the new position.
		th.selected[pos] = th.selected[movedFrom]
		if si := th.posInSel[movedFrom]; si >= 0 {
			th.selIdx[si] = pos
			th.posInSel[pos] = si
		} else {
			th.posInSel[pos] = -1
		}
		if ui := th.posInUns[movedFrom]; ui >= 0 {
			th.unselIdx[ui] = pos
			th.posInUns[pos] = ui
		} else {
			th.posInUns[pos] = -1
		}
	}
	th.selected = th.selected[:len(th.selected)-1]
	th.posInSel = th.posInSel[:len(th.posInSel)-1]
	th.posInUns = th.posInUns[:len(th.posInUns)-1]
}
