package obs

import (
	"fmt"
	"hash/fnv"
	"os"
	"sync/atomic"
	"time"
)

// Causal tracing: spans are begin/end event pairs in the ordinary ring
// buffer, so the span layer inherits the tracer's bounded-memory and
// never-block guarantees for free. A SpanContext travels over process
// boundaries (the dist wire protocol carries its three IDs), which is
// what lets a coordinator-side epoch span parent worker-side solve spans
// and lets mvcom-trace -merge rebuild one causal timeline from several
// per-process /trace dumps.

// SpanContext identifies one span's position in a trace: the trace it
// belongs to, its own ID, and the span it hangs under (0 for roots).
// The zero SpanContext is "no context" — starting a span under it makes
// a new root trace.
type SpanContext struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// spanProcBits is how many high bits of every allocated ID carry the
// per-process fingerprint. Two processes in one dist session then cannot
// collide on span IDs without also colliding on the fingerprint AND
// allocating the same low-bit sequence number — 2^42 allocations per
// process before wraparound.
const spanProcBits = 22

// TraceContext allocates trace/span IDs and emits span events into a
// tracer. Allocation is one atomic add; a nil *TraceContext is fully
// inert (StartSpan returns a nil *Span whose methods no-op), matching
// the nil-is-off contract of every observer in this package.
type TraceContext struct {
	tracer *Tracer
	proc   uint64 // per-process high bits, pre-shifted
	seq    atomic.Uint64
}

// NewTraceContext returns an ID allocator bound to the tracer; nil in,
// nil out. The process fingerprint mixes the PID and start time so
// coordinator and worker processes launched together draw from disjoint
// ID ranges.
func NewTraceContext(t *Tracer) *TraceContext {
	if t == nil {
		return nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", os.Getpid(), time.Now().UnixNano())
	proc := h.Sum64() << (64 - spanProcBits)
	if proc == 0 {
		proc = 1 << (64 - spanProcBits)
	}
	return &TraceContext{tracer: t, proc: proc}
}

// next allocates a process-unique nonzero ID.
func (tc *TraceContext) next() uint64 {
	return tc.proc | tc.seq.Add(1)
}

// StartRoot opens a new trace: the returned span is its root
// (TraceID == SpanID, no parent). Nil-safe.
func (tc *TraceContext) StartRoot(name, actor string) *Span {
	return tc.StartSpan(name, actor, SpanContext{})
}

// StartSpan opens a span under parent; an invalid (zero) parent starts a
// fresh root trace instead, so propagation call sites never need a
// have-we-got-a-parent branch. The begin event is emitted immediately.
// Nil-safe: a nil receiver returns a nil *Span whose methods no-op.
func (tc *TraceContext) StartSpan(name, actor string, parent SpanContext) *Span {
	if tc == nil {
		return nil
	}
	var sc SpanContext
	if parent.Valid() {
		sc = SpanContext{TraceID: parent.TraceID, SpanID: tc.next(), ParentID: parent.SpanID}
	} else {
		id := tc.next()
		sc = SpanContext{TraceID: id, SpanID: id}
	}
	s := &Span{tc: tc, ctx: sc, name: name, actor: actor, start: time.Now()}
	tc.tracer.EmitSpan(EvSpanBegin, actor, 0, name, sc)
	return s
}

// Span is one in-flight timed operation. Finish emits the end event;
// a span never finished shows up as incomplete in the timeline rather
// than poisoning it.
type Span struct {
	tc    *TraceContext
	ctx   SpanContext
	name  string
	actor string
	start time.Time
	done  atomic.Bool
}

// Context returns the span's wire context (zero for a nil span) — the
// value to embed in protocol messages so the receiving process can
// parent its own spans under this one.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Finish emits the end event with the span's wall duration. Safe to call
// on nil and idempotent: only the first Finish/FinishOutcome emits.
func (s *Span) Finish() { s.FinishOutcome("") }

// FinishOutcome finishes the span recording how it ended ("worker-dead",
// "error", ...); the outcome lands in the end event's Detail as
// "name:outcome". Nil-safe and idempotent.
func (s *Span) FinishOutcome(outcome string) {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.tc.tracer.EmitSpan(EvSpanEnd, s.actor, time.Since(s.start).Seconds(), spanDetail(s.name, outcome), s.ctx)
}

// spanDetail is a span end event's Detail, "name:outcome" (the bare name
// when the outcome is empty): a constant for the outcomes every quiet
// epoch of an idle plane ends its phases with, so such an epoch joins no
// string and the trace ring pins none.
func spanDetail(name, outcome string) string {
	switch {
	case outcome == "":
		return name
	case name == "collect" && outcome == "quiet-window":
		return "collect:quiet-window"
	case name == "commit" && outcome == "empty-block":
		return "commit:empty-block"
	}
	return name + ":" + outcome
}

// TraceContext returns the registry's span allocator, bound to the
// registry's tracer. Nil registry returns nil — the inert allocator.
func (r *Registry) TraceContext() *TraceContext {
	if r == nil {
		return nil
	}
	return r.traceCtx
}
