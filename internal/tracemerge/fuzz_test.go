package tracemerge

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"mvcom/internal/obs"
)

// FuzzReadDump checks that no trace dump panics ReadDump or Merge, and
// that every event either returns carries the dump's name.
func FuzzReadDump(f *testing.F) {
	tr := obs.NewTracer(8)
	for i := 0; i < 12; i++ {
		tr.Emit(obs.EvSERound, "kernel", float64(i), "")
	}
	var live bytes.Buffer
	if err := tr.StreamJSON(&live); err != nil {
		f.Fatal(err)
	}
	f.Add(live.Bytes())

	t0 := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	events := append(span(1, 1, 0, "epoch", "pipeline", t0, time.Second),
		span(1, 2, 1, "solve", "se", t0.Add(time.Millisecond), 500*time.Millisecond)...)
	events = append(events, clockSync("w1", 0.05, -0.01, 0.02)...)
	skewed, err := json.Marshal(map[string]any{"dropped": 3, "events": events})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(skewed)

	for _, doc := range []string{
		"this is not json",
		`[1,2,3]`,
		`{"dropped":0,"events":[{"at":"zzz`,
		`{"dropped":"many","events":[]}`,
		`{"dropped":3,"events":[{"type":"span-begin","actor":"se","traceId":1,"spanId":1}`,
		`{"events":{"not":"array"}}`,
		`{"dropped":3,"future":{"a":1},"events":[]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		const name = "w1"
		d, err := ReadDump(name, bytes.NewReader(doc))
		if err != nil {
			return
		}
		m := Merge([]*Dump{d})
		for _, evs := range [][]obs.Event{d.Events, m.Events} {
			for i, ev := range evs {
				if ev.Node != name {
					t.Fatalf("event %d node = %q, want %q", i, ev.Node, name)
				}
			}
		}
	})
}
