package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNilIsOff(t *testing.T) {
	var tc *TraceContext
	if got := NewTraceContext(nil); got != nil {
		t.Fatalf("NewTraceContext(nil) = %v, want nil", got)
	}
	s := tc.StartSpan("solve", "worker-1", SpanContext{})
	if s != nil {
		t.Fatalf("nil TraceContext StartSpan = %v, want nil", s)
	}
	// All nil-span methods must be safe.
	s.Finish()
	s.FinishOutcome("error")
	if got := s.Context(); got != (SpanContext{}) {
		t.Fatalf("nil span Context = %+v, want zero", got)
	}
	var r *Registry
	if got := r.TraceContext(); got != nil {
		t.Fatalf("nil Registry TraceContext = %v, want nil", got)
	}
}

func TestSpanRootAndChildParentage(t *testing.T) {
	tr := NewTracer(64)
	tc := NewTraceContext(tr)
	root := tc.StartRoot("epoch", "coordinator")
	rc := root.Context()
	if !rc.Valid() {
		t.Fatalf("root context invalid: %+v", rc)
	}
	if rc.TraceID != rc.SpanID || rc.ParentID != 0 {
		t.Fatalf("root should have TraceID==SpanID, ParentID==0; got %+v", rc)
	}
	child := tc.StartSpan("solve", "worker-1", rc)
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Fatalf("child TraceID %d != root TraceID %d", cc.TraceID, rc.TraceID)
	}
	if cc.ParentID != rc.SpanID {
		t.Fatalf("child ParentID %d != root SpanID %d", cc.ParentID, rc.SpanID)
	}
	if cc.SpanID == rc.SpanID {
		t.Fatal("child reused root SpanID")
	}
	// Invalid parent falls back to a fresh root trace.
	orphanless := tc.StartSpan("retry", "w", SpanContext{TraceID: 9})
	oc := orphanless.Context()
	if oc.ParentID != 0 || oc.TraceID != oc.SpanID {
		t.Fatalf("invalid parent should start a new root, got %+v", oc)
	}
}

func TestSpanBeginEndEvents(t *testing.T) {
	tr := NewTracer(64)
	tc := NewTraceContext(tr)
	s := tc.StartRoot("epoch", "coord")
	s.FinishOutcome("ok")
	s.Finish() // idempotent: must not emit a second end
	events, _ := tr.Snapshot()
	if len(events) != 2 {
		t.Fatalf("want 2 events (begin+end), got %d", len(events))
	}
	begin, end := events[0], events[1]
	if begin.Type != EvSpanBegin || begin.Detail != "epoch" {
		t.Fatalf("begin event wrong: %+v", begin)
	}
	if end.Type != EvSpanEnd || end.Detail != "epoch:ok" {
		t.Fatalf("end event wrong: %+v", end)
	}
	if begin.SpanID != end.SpanID || begin.TraceID != end.TraceID {
		t.Fatalf("begin/end span identity mismatch: %+v vs %+v", begin, end)
	}
	if end.Value < 0 {
		t.Fatalf("end duration negative: %v", end.Value)
	}
}

func TestSpanIDUniqueness(t *testing.T) {
	tc := NewTraceContext(NewTracer(16))
	const n = 2000
	seen := make(map[uint64]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				id := tc.next()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate span ID %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestSpanEventJSONRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tc := NewTraceContext(tr)
	tc.StartSpan("solve", "w1", tc.StartRoot("epoch", "c").Context()).Finish()
	events, _ := tr.Snapshot()
	raw, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if back[i].TraceID != events[i].TraceID || back[i].SpanID != events[i].SpanID ||
			back[i].ParentID != events[i].ParentID || back[i].Type != events[i].Type {
			t.Fatalf("event %d round-trip mismatch: %+v vs %+v", i, events[i], back[i])
		}
	}
	// Non-span events must not serialize span fields at all.
	tr2 := NewTracer(16)
	tr2.Emit(EvSERound, "k", 1, "")
	ev2, _ := tr2.Snapshot()
	raw2, _ := json.Marshal(ev2[0])
	if strings.Contains(string(raw2), "spanId") {
		t.Fatalf("non-span event leaked span fields: %s", raw2)
	}
}

func TestRegistryTraceContextIdentity(t *testing.T) {
	reg := NewRegistryWithTrace(DefaultTraceCapacity)
	a, b := reg.TraceContext(), reg.TraceContext()
	if a == nil || a != b {
		t.Fatalf("TraceContext not a stable singleton: %p vs %p", a, b)
	}
	s := a.StartRoot("x", "y")
	s.Finish()
	if reg.Tracer().Emitted() != 2 {
		t.Fatalf("registry tracer did not receive span events, emitted=%d", reg.Tracer().Emitted())
	}
}

func TestTracerStreamJSON(t *testing.T) {
	// 50 events of every kind and field mix into 32 slots: 18 drops.
	tr := NewTracer(32)
	type emitted struct {
		typ           EventType
		actor, detail string
		value         float64
		sc            SpanContext
		lo, hi        time.Time // time.Now() just before and after the emit
	}
	var em []emitted
	for i := 0; i < 50; i++ {
		e := emitted{typ: EventType(1 + i%int(evLast)), actor: []string{"", "pipeline", "committee-3"}[i%3], value: float64(i) / 4}
		if i%2 == 0 {
			e.detail = "solve:error"
			e.sc = SpanContext{TraceID: uint64(i) << 40, SpanID: uint64(i) + 1, ParentID: uint64(i) >> 1}
		}
		e.lo = time.Now()
		tr.EmitSpan(e.typ, e.actor, e.value, e.detail, e.sc)
		e.hi = time.Now()
		em = append(em, e)
	}
	var buf bytes.Buffer
	if err := tr.StreamJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// When quiescent the stream is, byte for byte, the Snapshot's events
	// marshaled one by one.
	snap, dropped := tr.Snapshot()
	if dropped != 18 || len(snap) != 32 {
		t.Fatalf("snapshot: %d events, %d dropped; want 32, 18", len(snap), dropped)
	}
	var want bytes.Buffer
	fmt.Fprintf(&want, "{\"dropped\":%d,\"events\":[", dropped)
	for i, ev := range snap {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			want.WriteByte(',')
		}
		want.Write(raw)
	}
	want.WriteString("]}\n")
	if buf.String() != want.String() {
		t.Fatalf("stream differs from the marshaled snapshot:\n got %s\nwant %s", buf.String(), want.String())
	}
	// Each rebuilt event is the one emitted, stamped inside its emit.
	for i, ev := range snap {
		e := em[18+i]
		if ev.Seq != uint64(18+i) || ev.Type != e.typ || ev.Actor != e.actor || ev.Value != e.value || ev.Detail != e.detail ||
			ev.TraceID != e.sc.TraceID || ev.SpanID != e.sc.SpanID || ev.ParentID != e.sc.ParentID || ev.Node != "" {
			t.Fatalf("event %d = %+v, emitted %+v", i, ev, e)
		}
		if ev.At.Before(e.lo) || ev.At.After(e.hi) || ev.At.Location() != e.lo.Location() {
			t.Fatalf("event %d at %v, emitted between %v and %v", i, ev.At, e.lo, e.hi)
		}
	}
	var doc struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	// Nil tracer writes the empty document.
	var nilBuf bytes.Buffer
	var nt *Tracer
	if err := nt.StreamJSON(&nilBuf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(nilBuf.Bytes(), &doc); err != nil || doc.Dropped != 0 || len(doc.Events) != 0 {
		t.Fatalf("nil tracer stream wrong: %s (err %v)", nilBuf.String(), err)
	}
}
