package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"unsafe"
)

func TestTracerBoundedAndOrdered(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Emit(EvSERound, "se", float64(i), "")
	}
	events, dropped := tr.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want capacity 16", len(events))
	}
	if dropped != 24 {
		t.Fatalf("dropped = %d, want 24", dropped)
	}
	if tr.Emitted() != 40 {
		t.Fatalf("emitted = %d, want 40", tr.Emitted())
	}
	// Oldest-first, gap-free sequence over the retained window.
	for i, ev := range events {
		if want := uint64(24 + i); ev.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
		if ev.Value != float64(24+i) {
			t.Fatalf("events[%d].Value = %g, want %d", i, ev.Value, 24+i)
		}
	}
}

func TestTracerNoDropsUnderCapacity(t *testing.T) {
	tr := NewTracer(64)
	for i := 0; i < 64; i++ {
		tr.Emit(EvSwapAccept, "se", float64(i), "")
	}
	events, dropped := tr.Snapshot()
	if len(events) != 64 || dropped != 0 {
		t.Fatalf("got %d events, %d dropped; want 64, 0", len(events), dropped)
	}
	if events[0].Seq != 0 || events[63].Seq != 63 {
		t.Fatalf("sequence window [%d, %d], want [0, 63]", events[0].Seq, events[63].Seq)
	}
}

func TestTracerMinimumCapacity(t *testing.T) {
	tr := NewTracer(1)
	for i := 0; i < 20; i++ {
		tr.Emit(EvReset, "se", 0, "")
	}
	events, dropped := tr.Snapshot()
	if len(events) != 16 {
		t.Fatalf("capacity floor: retained %d, want 16", len(events))
	}
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
}

func TestEventTypeJSON(t *testing.T) {
	ev := Event{Seq: 7, Type: EvIngest, Actor: "ingest", Value: 3, Detail: "batch"}
	raw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != "ingest" {
		t.Fatalf("type marshals as %v, want symbolic name ingest", m["type"])
	}
	if EventType(0).String() != "unknown" {
		t.Fatal("zero EventType should stringify as unknown")
	}
}

// TestTracerSlotSize pins the ring slot at 80 bytes: an emitter's fields
// with Seq positional, no Node, and At in Unix nanoseconds (an Event
// takes 120).
func TestTracerSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 80 {
		t.Fatalf("ring slot is %d bytes, want <= 80", n)
	}
}

// TestTracerRingBytes bounds the heap a full DefaultTraceCapacity ring
// retains: 4096 slots of 80 bytes are 320 KiB, where 4096 Events took
// 480 KiB. The events carry static strings, so the slots are all it
// holds, and the heap it frees once unreachable is what it retained.
// Each reading follows two collections, so garbage the first one found
// already allocated during its mark phase is gone too.
func TestTracerRingBytes(t *testing.T) {
	tr := NewTracer(DefaultTraceCapacity)
	for i := 0; i < 2*DefaultTraceCapacity; i++ {
		sc := SpanContext{TraceID: 1, SpanID: uint64(i) + 2, ParentID: 1}
		tr.EmitSpan(EvSpanEnd, "pipeline", float64(i), "solve", sc)
	}
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(tr)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	retained := int64(held.HeapAlloc) - int64(freed.HeapAlloc)
	if retained > 336<<10 {
		t.Fatalf("a full %d-event ring retains %d B, want <= %d", DefaultTraceCapacity, retained, 336<<10)
	}
}

// TestTracerStreamJSONConcurrentOverwrite streams a small ring while a
// writer laps it: every streamed event must be the one its Seq names
// (the writer emits Value = Seq), in ascending Seq order.
func TestTracerStreamJSONConcurrentOverwrite(t *testing.T) {
	check := func(raw []byte) []Event {
		t.Helper()
		var doc struct {
			Events []Event `json:"events"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("stream output not valid JSON: %v\n%s", err, raw)
		}
		for i, ev := range doc.Events {
			if ev.Value != float64(ev.Seq) {
				t.Fatalf("event seq %d carries value %g: the slot was overwritten", ev.Seq, ev.Value)
			}
			if i > 0 && ev.Seq <= doc.Events[i-1].Seq {
				t.Fatalf("seq %d follows %d", ev.Seq, doc.Events[i-1].Seq)
			}
		}
		return doc.Events
	}

	// Deterministic case: 20 events land between the export's header and
	// its first chunk, so of the 32 retained events (seqs 18..49) the 20
	// oldest are gone.
	tr := NewTracer(32)
	for i := 0; i < 50; i++ {
		tr.Emit(EvSERound, "w", float64(i), "")
	}
	var buf bytes.Buffer
	hook := writerFunc(func(p []byte) (int, error) {
		if buf.Len() == 0 {
			for i := 50; i < 70; i++ {
				tr.Emit(EvSERound, "w", float64(i), "")
			}
		}
		return buf.Write(p)
	})
	if err := tr.StreamJSON(hook); err != nil {
		t.Fatal(err)
	}
	if evs := check(buf.Bytes()); len(evs) != 12 || evs[0].Seq != 38 || evs[11].Seq != 49 {
		t.Fatalf("after 20 overwrites mid-export streamed %d events, want seqs 38..49: %+v", len(evs), evs)
	}

	// Concurrent case: one writer laps a 16-slot ring for as long as the
	// exports run.
	tr = NewTracer(16)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Emit(EvSERound, "w", float64(i), "")
		}
	}()
	for n := 0; n < 200; n++ {
		buf.Reset()
		if err := tr.StreamJSON(&buf); err != nil {
			t.Fatal(err)
		}
		check(buf.Bytes())
	}
	close(stop)
	<-done
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
