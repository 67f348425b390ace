// Package tracemerge reconstructs a single causal timeline out of the
// trace dumps of several mvcom processes (a coordinator plus its
// workers). Each process exports its bounded ring buffer as
// {"dropped":N,"events":[...]} — either a file saved from /trace or the
// live endpoint itself — and this package stitches the dumps together:
// it stamps every event with the process it came from, estimates each
// process's clock offset against the coordinator from the EvClockSync
// events the dist layer emits, shifts the skewed timestamps onto the
// reference clock, and folds the merged stream through the same
// obs.BuildTimeline used for single-process /debug/timeline views.
package tracemerge

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"mvcom/internal/decisionlog"
	"mvcom/internal/obs"
)

// Dump is one process's ingested trace export.
type Dump struct {
	// Name identifies the process ("coordinator", "w0", ...); it is
	// stamped into every event's Node field.
	Name string
	// Dropped is the exporter's evicted-event count at export time.
	Dropped uint64
	// Events is the retained window, Node-stamped, in export order.
	Events []obs.Event
}

// ReadDump ingests one {"dropped":N,"events":[...]} document with a
// streaming decoder — events are decoded one at a time, so a large dump
// never needs a second in-memory copy of its raw JSON. Every event is
// stamped with the dump name.
func ReadDump(name string, r io.Reader) (*Dump, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return nil, fmt.Errorf("dump %s: %w", name, err)
	}
	d := &Dump{Name: name}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("dump %s: %w", name, err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "dropped":
			if err := dec.Decode(&d.Dropped); err != nil {
				return nil, fmt.Errorf("dump %s: dropped: %w", name, err)
			}
		case "events":
			if err := expectDelim(dec, '['); err != nil {
				return nil, fmt.Errorf("dump %s: events: %w", name, err)
			}
			for dec.More() {
				var ev obs.Event
				if err := dec.Decode(&ev); err != nil {
					return nil, fmt.Errorf("dump %s: event %d: %w", name, len(d.Events), err)
				}
				ev.Node = name
				d.Events = append(d.Events, ev)
			}
			if _, err := dec.Token(); err != nil { // closing ]
				return nil, fmt.Errorf("dump %s: %w", name, err)
			}
		default: // tolerate fields from newer exporters
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, fmt.Errorf("dump %s: %q: %w", name, key, err)
			}
		}
	}
	return d, nil
}

// expectDelim consumes one token and checks it is the wanted delimiter.
func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("malformed trace dump: got %v, want %v", tok, want)
	}
	return nil
}

// FetchDump ingests a live process's trace over HTTP. A bare host:port
// or a URL without a path is pointed at the /trace endpoint obs.Serve
// exposes.
func FetchDump(name, rawURL string) (*Dump, error) {
	if !strings.Contains(rawURL, "://") {
		rawURL = "http://" + rawURL
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("dump %s: %w", name, err)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/trace"
	}
	resp, err := http.Get(u.String())
	if err != nil {
		return nil, fmt.Errorf("dump %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dump %s: %s returned %s", name, u, resp.Status)
	}
	return ReadDump(name, resp.Body)
}

// Load ingests one "[name=]path-or-url" source. URLs (anything with a
// scheme or a host:port shape that is not an existing file) are fetched
// live; everything else is read from disk. Without an explicit name the
// file base name (minus extension) or URL host is used.
func Load(source string) (*Dump, error) {
	name := ""
	if i := strings.Index(source, "="); i > 0 && !strings.Contains(source[:i], "/") {
		name, source = source[:i], source[i+1:]
	}
	if isURL(source) {
		if name == "" {
			if u, err := url.Parse(withScheme(source)); err == nil {
				name = u.Host
			} else {
				name = source
			}
		}
		return FetchDump(name, source)
	}
	if name == "" {
		base := source
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		if i := strings.LastIndexByte(base, '.'); i > 0 {
			base = base[:i]
		}
		name = base
	}
	f, err := os.Open(source)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(name, f)
}

// isURL reports whether a merge source should be fetched rather than
// opened: explicit schemes always, host:port shapes only when no such
// file exists on disk.
func isURL(s string) bool {
	if strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") {
		return true
	}
	if _, err := os.Stat(s); err == nil {
		return false
	}
	// host:port with no path separators reads as a live endpoint.
	i := strings.LastIndexByte(s, ':')
	return i > 0 && !strings.ContainsAny(s, "/\\") && i < len(s)-1
}

func withScheme(s string) string {
	if strings.Contains(s, "://") {
		return s
	}
	return "http://" + s
}

// EstimateOffset returns the seconds to ADD to the dump's timestamps to
// land on the coordinator's reference clock: the median of the dump's
// EvClockSync offset estimates (each one an NTP-style midpoint computed
// by the dist worker from the Progress/Best echo). A dump with no sync
// samples — the coordinator itself, or a single-process run — is its own
// reference and gets offset 0. The median keeps one congested round trip
// from skewing the alignment.
func EstimateOffset(d *Dump) (offsetSec float64, samples int) {
	var vals []float64
	for _, ev := range d.Events {
		if ev.Type == obs.EvClockSync {
			vals = append(vals, ev.Value)
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid], len(vals)
	}
	return (vals[mid-1] + vals[mid]) / 2, len(vals)
}

// NodeInfo summarizes one ingested dump in the merged artifact.
type NodeInfo struct {
	Name string `json:"name"`
	// Events is the retained-window size that was merged.
	Events int `json:"events"`
	// Dropped is how much history the exporter's ring had evicted.
	Dropped uint64 `json:"dropped"`
	// OffsetSec is the clock correction applied to this node's events.
	OffsetSec float64 `json:"offsetSec"`
	// ClockSamples is how many EvClockSync estimates backed the offset.
	// 0 means no correction: the first node is the reference clock, and a
	// later node without samples merges on its own clock (Merged.Warnings
	// names it).
	ClockSamples int `json:"clockSamples"`
}

// DecisionRef joins one decision-journal entry to the merged timeline:
// the epoch root span whose TraceID the entry recorded, the node that
// emitted it, and the decision's headline terms.
type DecisionRef struct {
	Epoch   int     `json:"epoch"`
	TraceID uint64  `json:"traceId"`
	Node    string  `json:"node"`
	Utility float64 `json:"utility"`
	// Selected is the entry's selected instance indices.
	Selected []int `json:"selected,omitempty"`
}

// Merged is the cross-process reconstruction: per-node ingest stats plus
// the causal forest over the clock-aligned union of all events.
type Merged struct {
	Nodes []NodeInfo `json:"nodes"`
	// Warnings flags merge-quality hazards a reader should know about
	// before trusting the alignment: renamed duplicate node names, and
	// non-reference nodes merged with no clock-sync samples.
	Warnings []string `json:"warnings,omitempty"`
	// Decisions holds audit-journal entries joined onto the timeline via
	// their epoch root spans (JoinDecisions); empty until joined.
	Decisions []DecisionRef `json:"decisions,omitempty"`
	Timeline  *obs.Timeline `json:"timeline"`
	// Events is the clock-aligned union, oldest first (offsets applied).
	Events []obs.Event `json:"events"`
}

// Merge aligns the dumps onto the reference clock and reconstructs the
// merged causal timeline. Span durations survive the shift exactly: the
// timeline builder takes them from the end events' emitter-measured
// values, never from shifted endpoint differences.
//
// The first dump is the reference clock; any later dump with zero
// EvClockSync samples is merged on its own clock (offset 0) and flagged
// in Warnings. Duplicate dump names are renamed ("w1" -> "w1#2") so
// per-node stats and event attribution stay unambiguous.
func Merge(dumps []*Dump) *Merged {
	m := &Merged{}
	seen := make(map[string]int, len(dumps))
	for i, d := range dumps {
		name := d.Name
		seen[name]++
		if c := seen[name]; c > 1 {
			name = fmt.Sprintf("%s#%d", name, c)
			m.Warnings = append(m.Warnings, fmt.Sprintf(
				"duplicate node name %q renamed to %q", d.Name, name))
		}
		off, n := EstimateOffset(d)
		if i > 0 && n == 0 {
			m.Warnings = append(m.Warnings, fmt.Sprintf(
				"node %q has no clock-sync samples; merged on its own clock (offset 0)", name))
		}
		m.Nodes = append(m.Nodes, NodeInfo{
			Name: name, Events: len(d.Events), Dropped: d.Dropped,
			OffsetSec: off, ClockSamples: n,
		})
		shift := time.Duration(off * float64(time.Second))
		for _, ev := range d.Events {
			ev.At = ev.At.Add(shift)
			ev.Node = name
			m.Events = append(m.Events, ev)
		}
	}
	sort.SliceStable(m.Events, func(i, j int) bool { return m.Events[i].At.Before(m.Events[j].At) })
	m.Timeline = obs.BuildTimeline(m.Events)
	return m
}

// JoinDecisions links decision-journal entries onto the merged timeline:
// an entry joins when some node's epoch root span (EvSpanBegin with
// TraceID == SpanID) carries the entry's recorded TraceID. Returns how
// many entries joined; entries without a TraceID (tracing was off) or
// whose root span fell out of the bounded ring simply do not join.
func (m *Merged) JoinDecisions(entries []decisionlog.Entry) int {
	roots := make(map[uint64]string)
	for _, ev := range m.Events {
		if ev.Type == obs.EvSpanBegin && ev.TraceID != 0 && ev.TraceID == ev.SpanID {
			roots[ev.TraceID] = ev.Node
		}
	}
	joined := 0
	for i := range entries {
		e := &entries[i]
		if e.TraceID == 0 {
			continue
		}
		node, ok := roots[e.TraceID]
		if !ok {
			continue
		}
		m.Decisions = append(m.Decisions, DecisionRef{
			Epoch: e.Epoch, TraceID: e.TraceID, Node: node,
			Utility: e.Utility, Selected: e.Selected,
		})
		joined++
	}
	return joined
}

// WriteJSON writes the merged artifact (node stats + timeline + aligned
// events) as indented JSON — the CI soak uploads this document.
func (m *Merged) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteTree renders the node summary, merge warnings, joined decisions,
// and the flamegraph-style text tree.
func (m *Merged) WriteTree(w io.Writer) error {
	for i, n := range m.Nodes {
		ref := ""
		if i == 0 {
			ref = " (reference clock)"
		}
		if _, err := fmt.Fprintf(w, "node %-14s events=%d dropped=%d offset=%+.3fms%s\n",
			n.Name, n.Events, n.Dropped, n.OffsetSec*1e3, ref); err != nil {
			return err
		}
	}
	for _, warn := range m.Warnings {
		if _, err := fmt.Fprintf(w, "warning: %s\n", warn); err != nil {
			return err
		}
	}
	for _, d := range m.Decisions {
		if _, err := fmt.Fprintf(w, "decision epoch=%d node=%s utility=%g selected=%v\n",
			d.Epoch, d.Node, d.Utility, d.Selected); err != nil {
			return err
		}
	}
	return m.Timeline.WriteTree(w)
}
