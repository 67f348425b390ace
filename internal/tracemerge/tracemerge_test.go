package tracemerge

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mvcom/internal/obs"
)

// span emits a hand-built begin/end pair with controlled timestamps so
// the tests can simulate processes whose wall clocks disagree.
func span(traceID, spanID, parentID uint64, name, actor string, start time.Time, dur time.Duration) []obs.Event {
	return []obs.Event{
		{At: start, Type: obs.EvSpanBegin, Actor: actor, Detail: name,
			TraceID: traceID, SpanID: spanID, ParentID: parentID},
		{At: start.Add(dur), Type: obs.EvSpanEnd, Actor: actor, Detail: name,
			Value: dur.Seconds(), TraceID: traceID, SpanID: spanID, ParentID: parentID},
	}
}

func clockSync(worker string, offsets ...float64) []obs.Event {
	evs := make([]obs.Event, len(offsets))
	for i, off := range offsets {
		evs[i] = obs.Event{Type: obs.EvClockSync, Actor: worker, Value: off}
	}
	return evs
}

// findSpan walks the forest for the first span with the given name+actor.
func findSpan(list []*obs.TimelineSpan, name, actor string) *obs.TimelineSpan {
	for _, s := range list {
		if s.Name == name && (actor == "" || s.Actor == actor) {
			return s
		}
		if got := findSpan(s.Children, name, actor); got != nil {
			return got
		}
	}
	return nil
}

// TestMergeCorrectsClockSkew is the headline alignment scenario: two
// workers whose clocks are off by -50ms and +50ms against the
// coordinator. Raw timestamps put the behind-clock worker's solve span
// BEFORE the dispatch that caused it; after offset correction from the
// EvClockSync samples the merged timeline must be causally consistent —
// every child starts at or after its parent, within the sync tolerance.
func TestMergeCorrectsClockSkew(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).UTC()
	const (
		skew = 50 * time.Millisecond
		// tol absorbs the residual error of the NTP-style estimate.
		tol = 2 * time.Millisecond
	)

	// Coordinator (reference clock): epoch root with one dispatch child.
	co := &Dump{Name: "coordinator"}
	co.Events = append(co.Events, span(0x10, 0x10, 0, "epoch", "coordinator", base.Add(-10*time.Millisecond), 40*time.Millisecond)...)
	co.Events = append(co.Events, span(0x10, 0x11, 0x10, "dispatch", "task-0#1", base, 20*time.Millisecond)...)

	// w0's clock runs 50ms BEHIND: its solve真 starts 5ms after the
	// dispatch but is stamped 45ms before it. Sync samples say "add 50ms".
	w0 := &Dump{Name: "w0"}
	w0.Events = append(w0.Events, span(0x10, 0x12, 0x11, "solve", "w0", base.Add(5*time.Millisecond-skew), 10*time.Millisecond)...)
	w0.Events = append(w0.Events, clockSync("w0", 0.049, 0.050, 0.051)...)

	// w1's clock runs 50ms AHEAD; samples say "subtract 50ms".
	w1 := &Dump{Name: "w1"}
	w1.Events = append(w1.Events, span(0x10, 0x13, 0x11, "solve", "w1", base.Add(6*time.Millisecond+skew), 9*time.Millisecond)...)
	w1.Events = append(w1.Events, clockSync("w1", -0.051, -0.050, -0.049)...)

	// Premise: without correction the ordering really is inverted.
	rawSolve := w0.Events[0].At
	if !rawSolve.Before(base) {
		t.Fatal("test premise broken: skewed solve should predate the dispatch")
	}

	m := Merge([]*Dump{co, w1, w0})
	if len(m.Timeline.Orphans) != 0 {
		t.Fatalf("orphans = %d, want 0", len(m.Timeline.Orphans))
	}
	if len(m.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(m.Nodes))
	}
	for _, n := range m.Nodes {
		switch n.Name {
		case "coordinator":
			if n.OffsetSec != 0 || n.ClockSamples != 0 {
				t.Fatalf("coordinator must be the reference clock, got offset=%v samples=%d", n.OffsetSec, n.ClockSamples)
			}
		case "w0":
			if n.OffsetSec != 0.050 {
				t.Fatalf("w0 offset = %v, want median 0.050", n.OffsetSec)
			}
		case "w1":
			if n.OffsetSec != -0.050 {
				t.Fatalf("w1 offset = %v, want median -0.050", n.OffsetSec)
			}
		}
	}

	dispatch := findSpan(m.Timeline.Roots, "dispatch", "")
	if dispatch == nil {
		t.Fatal("dispatch span missing from merged timeline")
	}
	for _, worker := range []string{"w0", "w1"} {
		solve := findSpan(dispatch.Children, "solve", worker)
		if solve == nil {
			t.Fatalf("%s solve span not a child of its dispatch", worker)
		}
		if solve.Node != worker {
			t.Fatalf("%s solve span node = %q", worker, solve.Node)
		}
		if solve.Start.Before(dispatch.Start.Add(-tol)) {
			t.Fatalf("%s solve starts %v before its dispatch after correction",
				worker, dispatch.Start.Sub(solve.Start))
		}
		if solve.End.After(dispatch.End.Add(tol)) {
			t.Fatalf("%s solve ends after its dispatch after correction", worker)
		}
	}
	// Corrected wall positions: w0's solve lands back at base+5ms.
	w0solve := findSpan(dispatch.Children, "solve", "w0")
	if got := w0solve.Start.Sub(base); got < 5*time.Millisecond-tol || got > 5*time.Millisecond+tol {
		t.Fatalf("w0 solve corrected start = base%+v, want ~+5ms", got)
	}
	// Durations are emitter-measured and must survive the shift exactly.
	if w0solve.DurationMs != 10 {
		t.Fatalf("w0 solve duration = %vms, want 10", w0solve.DurationMs)
	}
	// In the aligned event union, every event carries its node stamp.
	for _, ev := range m.Events {
		if ev.Node == "" {
			t.Fatal("merged event missing node stamp")
		}
	}
}

// TestReadDumpRoundTrip pushes a live tracer's StreamJSON export through
// the streaming reader and checks nothing is lost or re-ordered, the
// dropped count survives, and every event gets the dump's node stamp.
func TestReadDumpRoundTrip(t *testing.T) {
	tr := obs.NewTracer(32)
	for i := 0; i < 50; i++ {
		tr.Emit(obs.EvSERound, "kernel", float64(i), "")
	}
	var buf bytes.Buffer
	if err := tr.StreamJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump("proc-a", &buf)
	if err != nil {
		t.Fatal(err)
	}
	events, dropped := tr.Snapshot()
	if d.Dropped != dropped {
		t.Fatalf("dropped = %d, want %d", d.Dropped, dropped)
	}
	if len(d.Events) != len(events) {
		t.Fatalf("events = %d, want %d", len(d.Events), len(events))
	}
	for i, ev := range d.Events {
		if ev.Seq != events[i].Seq || ev.Value != events[i].Value {
			t.Fatalf("event %d mismatch: got seq=%d value=%v", i, ev.Seq, ev.Value)
		}
		if ev.Node != "proc-a" {
			t.Fatalf("event %d node = %q, want proc-a", i, ev.Node)
		}
	}
}

// TestFetchDumpLiveEndpoint ingests a running process's /trace endpoint
// from a bare host:port source, the way -merge mixes live processes with
// saved files.
func TestFetchDumpLiveEndpoint(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	server, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	tc := reg.TraceContext()
	sp := tc.StartRoot("epoch", "live")
	tc.StartSpan("solve", "w9", sp.Context()).Finish()
	sp.Finish()

	d, err := FetchDump("live", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 4 {
		t.Fatalf("fetched %d events, want 4", len(d.Events))
	}
	// Load with a bare host:port (no scheme, no file on disk) must take
	// the live path too.
	d2, err := Load("w9=" + server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != "w9" || len(d2.Events) != 4 {
		t.Fatalf("Load(host:port) = %q/%d events, want w9/4", d2.Name, len(d2.Events))
	}
}

// TestReadDumpMalformed rejects non-dump JSON instead of misreading it.
func TestReadDumpMalformed(t *testing.T) {
	if _, err := ReadDump("x", strings.NewReader(`[1,2,3]`)); err == nil {
		t.Fatal("array accepted as a trace dump")
	}
	if _, err := ReadDump("x", strings.NewReader(`{"events":{"not":"array"}}`)); err == nil {
		t.Fatal("object events accepted")
	}
	// Unknown fields from newer exporters are tolerated.
	d, err := ReadDump("x", strings.NewReader(`{"dropped":3,"future":{"a":1},"events":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Dropped != 3 || len(d.Events) != 0 {
		t.Fatalf("got dropped=%d events=%d", d.Dropped, len(d.Events))
	}
}

// TestEstimateOffsetMedian: the median must shrug off one congested
// round trip's outlier estimate.
func TestEstimateOffsetMedian(t *testing.T) {
	d := &Dump{Events: clockSync("w", 0.010, 0.011, 0.012, 0.013, 0.900)}
	off, n := EstimateOffset(d)
	if n != 5 {
		t.Fatalf("samples = %d, want 5", n)
	}
	if off != 0.012 {
		t.Fatalf("offset = %v, want median 0.012", off)
	}
	if off, n := EstimateOffset(&Dump{}); off != 0 || n != 0 {
		t.Fatalf("empty dump: offset=%v samples=%d, want 0,0", off, n)
	}
}

// TestMergedWriteTree smoke-checks the text artifact: node summary lines
// with offsets, then the per-trace span tree.
func TestMergedWriteTree(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).UTC()
	co := &Dump{Name: "coordinator"}
	co.Events = append(co.Events, span(0x20, 0x20, 0, "epoch", "coordinator", base, 30*time.Millisecond)...)
	w := &Dump{Name: "w0", Dropped: 2}
	w.Events = append(w.Events, span(0x20, 0x21, 0x20, "solve", "w0", base.Add(time.Millisecond), 5*time.Millisecond)...)
	w.Events = append(w.Events, clockSync("w0", 0.001)...)

	var buf bytes.Buffer
	if err := Merge([]*Dump{co, w}).WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"node coordinator", "(reference clock)", "node w0", "dropped=2",
		"trace 0000000000000020", "epoch (coordinator@coordinator)", "solve (w0@w0)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTreeLabelsOnlyFirstDumpReference pins that the first dump is
// the one reference clock: a later dump with no clock-sync samples merges
// on its own clock, and its tree line must not claim the reference.
func TestWriteTreeLabelsOnlyFirstDumpReference(t *testing.T) {
	base := time.Unix(1_700_000_000, 0).UTC()
	a := &Dump{Name: "a", Events: span(0x30, 0x30, 0, "epoch", "a", base, 30*time.Millisecond)}
	b := &Dump{Name: "b", Events: span(0x30, 0x31, 0x30, "solve", "b", base.Add(time.Millisecond), 5*time.Millisecond)}
	var buf bytes.Buffer
	if err := Merge([]*Dump{a, b}).WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		ref := strings.Contains(line, "reference clock")
		switch {
		case strings.HasPrefix(line, "node a ") && !ref:
			t.Fatalf("first dump not labelled the reference: %q", line)
		case strings.HasPrefix(line, "node b ") && ref:
			t.Fatalf("second dump labelled the reference: %q", line)
		}
	}
}
