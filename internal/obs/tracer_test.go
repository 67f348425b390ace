package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
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

// TestTracerSlotSize pins the ring slot at 48 bytes: the emission time
// in Unix nanoseconds, the value, the three span IDs, and one word
// packing the type with the interned actor and detail ids (an Event
// takes 120).
func TestTracerSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 48 {
		t.Fatalf("ring slot is %d bytes, want <= 48", n)
	}
	if detailShift+idBits != 64 || 2*maxTraceCapacity+1 > idMask {
		t.Fatalf("ids of %d bits from bit %d cannot name the 2·%d+1 strings of a largest ring", idBits, detailShift, maxTraceCapacity)
	}
}

// TestTracerSlotHoldsNoPointers walks the slot's fields: none may hold a
// pointer, so the ring's backing array is never scanned by the collector.
func TestTracerSlotHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
}

// TestTracerRingBytes bounds the heap a full DefaultTraceCapacity ring
// retains: 4096 slots of 48 bytes are 192 KiB, where 4096 Events took
// 480 KiB. The events name two static strings, so the string table adds
// its 1 KiB id hint and a two-entry map, and the heap the ring frees once
// unreachable stays under 208 KiB. Each reading follows two collections,
// so garbage the first one found already allocated during its mark phase
// is gone too.
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
	if retained > 208<<10 {
		t.Fatalf("a full %d-event ring retains %d B, want <= %d", DefaultTraceCapacity, retained, 208<<10)
	}
}

// checkStrTable recounts the slot fields naming each id: the table's
// counts must match, a freed id must hold "" and sit on the free list,
// the map must name exactly the live ids, and a full ring of capacity
// slots may name at most 2·capacity strings.
func checkStrTable(t *testing.T, tr *Tracer) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := &tr.strs
	refs := make([]uint32, len(st.strs))
	for i := 0; i < int(min(tr.next, uint64(len(tr.buf)))); i++ {
		m := tr.buf[i].meta
		refs[m>>actorShift&idMask]++
		refs[m>>detailShift]++
	}
	live := 0
	for id := 1; id < len(st.strs); id++ {
		e := st.strs[id]
		if e.refs != refs[id] {
			t.Fatalf("id %d (%q) counts %d slot fields, the ring has %d", id, e.s, e.refs, refs[id])
		}
		if e.refs == 0 {
			if e.s != "" {
				t.Fatalf("freed id %d still holds %q", id, e.s)
			}
			continue
		}
		live++
		if got, ok := st.ids[e.s]; !ok || got != uint32(id) {
			t.Fatalf("id %d holds %q, which the map gives id %d (%t)", id, e.s, got, ok)
		}
	}
	if len(st.ids) != live || len(st.free) != len(st.strs)-1-live {
		t.Fatalf("%d live ids, %d map entries, %d of %d ids free", live, len(st.ids), len(st.free), len(st.strs)-1)
	}
	if live > 2*len(tr.buf) {
		t.Fatalf("%d live strings in a %d-slot ring", live, len(tr.buf))
	}
}

// TestTracerMatchesReferenceRing feeds seeded random mixes of constant
// and freshly built actors and details, plain and span events, through
// small rings across several wraps. At each check Snapshot and StreamJSON
// must equal, byte for byte, what a plain []Event ring keeping the same
// events marshals to, and the string table must count exactly what the
// ring names.
func TestTracerMatchesReferenceRing(t *testing.T) {
	consts := []string{"", "pipeline", "solve", "ingest", "batch", "epoch", "se",
		"committee-7", "committee-17", "collect:quiet-window"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() string {
			switch rng.Intn(4) {
			case 0:
				return "utility=" + strconv.Itoa(rng.Intn(40)) // built here; contents repeat
			case 1:
				return strings.Clone(consts[rng.Intn(len(consts))]) // a constant's contents, fresh
			default:
				return consts[rng.Intn(len(consts))]
			}
		}
		capacity := 16 + rng.Intn(20)
		tr := NewTracer(capacity)
		var ref []Event
		var lo, hi []int64 // each event's emission window, Unix ns
		check := func() {
			t.Helper()
			start := max(len(ref)-capacity, 0)
			got, dropped := tr.Snapshot()
			if dropped != uint64(start) || len(got) != len(ref)-start || tr.Dropped() != uint64(start) {
				t.Fatalf("seed %d: %d events, %d dropped (Dropped %d) after %d emits into %d slots",
					seed, len(got), dropped, tr.Dropped(), len(ref), capacity)
			}
			want := append([]Event(nil), ref[start:]...)
			for i := range want {
				// The emit reads the clock itself: it must fall in the
				// emit's window (a second's slack for a stepped clock)
				// and come back in the zone time.Now uses.
				at := got[i].At
				if at.Location() != time.Local || at.UnixNano() < lo[start+i]-1e9 || at.UnixNano() > hi[start+i]+1e9 {
					t.Fatalf("seed %d: event %d carries time %v, emitted in [%d, %d]", seed, want[i].Seq, at, lo[start+i], hi[start+i])
				}
				want[i].At = at
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("seed %d: Snapshot after %d emits\n got %s\nwant %s", seed, len(ref), gotJSON, wantJSON)
			}
			var stream bytes.Buffer
			if err := tr.StreamJSON(&stream); err != nil {
				t.Fatal(err)
			}
			if doc := fmt.Sprintf("{\"dropped\":%d,\"events\":%s}\n", start, wantJSON); stream.String() != doc {
				t.Fatalf("seed %d: StreamJSON after %d emits\n got %s\nwant %s", seed, len(ref), stream.Bytes(), doc)
			}
			checkStrTable(t, tr)
		}
		n := 6*capacity + rng.Intn(capacity)
		for i := 0; i < n; i++ {
			ev := Event{Seq: uint64(i), Type: EventType(1 + rng.Intn(int(evLast))),
				Actor: pick(), Value: float64(rng.Intn(64)) / 8, Detail: pick()}
			lo = append(lo, time.Now().UnixNano())
			if rng.Intn(2) == 0 {
				tr.Emit(ev.Type, ev.Actor, ev.Value, ev.Detail)
			} else {
				sc := SpanContext{TraceID: rng.Uint64(), SpanID: rng.Uint64(), ParentID: uint64(rng.Intn(3))}
				ev.TraceID, ev.SpanID, ev.ParentID = sc.TraceID, sc.SpanID, sc.ParentID
				tr.EmitSpan(ev.Type, ev.Actor, ev.Value, ev.Detail, sc)
			}
			hi = append(hi, time.Now().UnixNano())
			ref = append(ref, ev)
			if rng.Intn(capacity/2) == 0 || i == n-1 {
				check()
			}
		}
	}
}

// TestTracerStringTableBounded passes a distinct actor and detail with
// every event: the ids of overwritten slots are freed and reused, so a
// 64-slot ring names at most 2·64 strings and never allocates an id past
// the 2·64+1 an emit can need.
func TestTracerStringTableBounded(t *testing.T) {
	tr := NewTracer(64)
	for i := 0; i < 100000; i++ {
		s := strconv.Itoa(i)
		tr.Emit(EvDecision, "a"+s, float64(i), "utility="+s)
	}
	checkStrTable(t, tr)
	if live, ids := len(tr.strs.ids), len(tr.strs.strs)-1; live > 2*64 || ids > 2*64+1 {
		t.Fatalf("after 100000 distinct strings a 64-slot ring holds %d live ids of %d allocated, want <= 128 and <= 129", live, ids)
	}
}

// TestTracerStreamJSONConcurrentOverwrite streams a small ring while a
// writer laps it: every streamed event must be the one its Seq names
// (the writer emits Value = Seq and Detail = the Seq's digits, a fresh
// string whose id is freed and reused as the ring laps), in ascending
// Seq order. A detail that does not match its Seq means a string was
// read after its id was reused.
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
			if want := strconv.FormatUint(ev.Seq, 10); ev.Detail != want {
				t.Fatalf("event seq %d carries detail %q: its string id was reused", ev.Seq, ev.Detail)
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
		tr.Emit(EvSERound, "w", float64(i), strconv.Itoa(i))
	}
	var buf bytes.Buffer
	hook := writerFunc(func(p []byte) (int, error) {
		if buf.Len() == 0 {
			for i := 50; i < 70; i++ {
				tr.Emit(EvSERound, "w", float64(i), strconv.Itoa(i))
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
			tr.Emit(EvSERound, "w", float64(i), strconv.Itoa(i))
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
