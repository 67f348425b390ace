package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType identifies a structured trace event.
type EventType uint8

// The typed events emitted by the instrumented subsystems.
const (
	// EvSERound marks a batch of SE transition rounds (Value = rounds).
	EvSERound EventType = iota + 1
	// EvSwapAccept marks an accepted swap that improved the global best
	// (Value = new best utility).
	EvSwapAccept
	// EvReset marks RESET broadcasts re-arming the solution threads
	// (Value = broadcast count in the segment).
	EvReset
	// EvSegmentMerge marks an explorer-segment merge at a kernel sync
	// point (Value = best utility after the merge).
	EvSegmentMerge
	// EvShardJoin marks a dynamic join event entering the candidate set.
	EvShardJoin
	// EvShardLeave marks a dynamic leave event trimming the state space.
	EvShardLeave
	// EvDistSend marks a protocol message sent (Detail = message type).
	EvDistSend
	// EvDistRecv marks a protocol message received (Detail = type).
	EvDistRecv
	// EvDistTaskError marks a worker task failing (Detail = error).
	EvDistTaskError
	// EvEpochPhase marks an epoch pipeline phase transition (Detail =
	// phase name, Value = epoch number).
	EvEpochPhase
	// EvShardAge records a permitted shard's age at inclusion in the
	// final block (Value = age in seconds, Actor = committee).
	EvShardAge
	// EvDistFault marks an injected fault firing at a named fault point
	// (Actor = point, Detail = action).
	EvDistFault
	// EvDistRetry marks a recovery action in the dist layer: a worker
	// reconnect, a task reassignment, or a local-solve fallback
	// (Detail = kind, Actor = worker/task, Value = attempt).
	EvDistRetry
	// EvConvergence marks a convergence-diagnostics emission from the SE
	// kernel: a window sample or the end-of-run summary (Detail = kind,
	// Value = headline number: best utility or d_TV estimate).
	EvConvergence
	// EvSpanBegin opens a causal span (Detail = span name, Actor =
	// component; the Event's TraceID/SpanID/ParentID locate it).
	EvSpanBegin
	// EvSpanEnd closes a causal span (Value = duration seconds, Detail =
	// "name" or "name:outcome").
	EvSpanEnd
	// EvClockSync records an NTP-style clock-offset estimate against the
	// session's reference clock (Value = seconds to ADD to this process's
	// timestamps to land on the reference clock, Detail = round-trip
	// time, Actor = worker). mvcom-trace -merge uses the per-dump median
	// to align timelines from machines with skewed clocks.
	EvClockSync
	// EvDecision marks an epoch decision-journal append (Actor = "epoch",
	// Value = epoch number, Detail = "utility=<U>"; TraceID carries the
	// epoch root span's trace so a timeline node joins to its audit
	// entry — see internal/decisionlog and tracemerge.JoinDecisions).
	EvDecision
	// EvIngest marks a serving-plane ingest action: a batch flushed into
	// an epoch, a graceful drain, or admission shedding (Actor =
	// "ingest", Value = transactions involved, Detail = kind).
	EvIngest

	// evLast is the highest defined event type (JSON name lookup bound).
	evLast = EvIngest
)

// String names the event type for exposition.
func (t EventType) String() string {
	switch t {
	case EvSERound:
		return "se_round"
	case EvSwapAccept:
		return "se_swap_accept"
	case EvReset:
		return "se_reset"
	case EvSegmentMerge:
		return "se_segment_merge"
	case EvShardJoin:
		return "shard_join"
	case EvShardLeave:
		return "shard_leave"
	case EvDistSend:
		return "dist_send"
	case EvDistRecv:
		return "dist_recv"
	case EvDistTaskError:
		return "dist_task_error"
	case EvEpochPhase:
		return "epoch_phase"
	case EvShardAge:
		return "shard_age"
	case EvDistFault:
		return "dist_fault"
	case EvDistRetry:
		return "dist_retry"
	case EvConvergence:
		return "se_convergence"
	case EvSpanBegin:
		return "span_begin"
	case EvSpanEnd:
		return "span_end"
	case EvClockSync:
		return "clock_sync"
	case EvDecision:
		return "decision"
	case EvIngest:
		return "ingest"
	default:
		return "unknown"
	}
}

// MarshalJSON emits the symbolic name, not the raw code.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON parses the symbolic name back; unknown names decode to 0
// so trace consumers tolerate events from newer writers.
func (t *EventType) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for c := EvSERound; c <= evLast; c++ {
		if c.String() == name {
			*t = c
			return nil
		}
	}
	*t = 0
	return nil
}

// Event is one structured trace record.
type Event struct {
	// Seq is the global emission sequence number (gap-free; gaps in a
	// snapshot mean drops).
	Seq uint64 `json:"seq"`
	// At is the wall-clock emission time.
	At time.Time `json:"at"`
	// Type is the typed event kind.
	Type EventType `json:"type"`
	// Actor identifies the emitting component (worker id, committee, …).
	Actor string `json:"actor,omitempty"`
	// Value carries the event's headline number (utility, count, age).
	Value float64 `json:"value,omitempty"`
	// Detail is free-form context (message type, phase, error text).
	Detail string `json:"detail,omitempty"`
	// TraceID, SpanID, and ParentID locate a span event in its causal
	// trace (zero on non-span events; see SpanContext).
	TraceID  uint64 `json:"traceId,omitempty"`
	SpanID   uint64 `json:"spanId,omitempty"`
	ParentID uint64 `json:"parentId,omitempty"`
	// Node names the process the event came from. Emitters leave it
	// empty; mvcom-trace -merge stamps it per ingested dump so a merged
	// timeline keeps the per-process attribution.
	Node string `json:"node,omitempty"`
}

// Tracer is a bounded ring buffer of trace events. Writers never block
// and the buffer never grows: once full, each new event evicts the
// oldest and the eviction is counted as a drop, so the tracer always
// reports exactly how much history it lost.
type Tracer struct {
	mu      sync.Mutex
	buf     []slot // event s lives at buf[s%len(buf)]
	next    uint64 // total events ever emitted == next Seq
	dropped uint64
}

// slot is one ring entry: the fields an emitter writes, 80 bytes where
// an Event takes 120. Seq is the slot's position (event s lives at
// s%cap), Node is stamped only on loaded dumps, and At is kept as Unix
// nanoseconds; Snapshot and StreamJSON rebuild each Event with event.
type slot struct {
	at     int64 // emission time, Unix nanoseconds
	value  float64
	sc     SpanContext
	actor  string
	detail string
	typ    EventType
}

// event rebuilds the Event held in slot seq. time.Unix returns the Local
// zone, as time.Now does, so the JSON matches the emitted time's.
func (sl *slot) event(seq uint64) Event {
	return Event{
		Seq: seq, At: time.Unix(0, sl.at), Type: sl.typ, Actor: sl.actor,
		Value: sl.value, Detail: sl.detail,
		TraceID: sl.sc.TraceID, SpanID: sl.sc.SpanID, ParentID: sl.sc.ParentID,
	}
}

// NewTracer returns a tracer bounded to the given capacity (min 16).
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{buf: make([]slot, capacity)}
}

// Emit appends an event, evicting the oldest when full. Safe for
// concurrent use; no-op on a nil tracer.
func (t *Tracer) Emit(typ EventType, actor string, value float64, detail string) {
	t.EmitSpan(typ, actor, value, detail, SpanContext{})
}

// EmitSpan is Emit carrying a span context — the begin/end event path of
// the causal-tracing layer (span.go). Safe for concurrent use; no-op on
// a nil tracer.
func (t *Tracer) EmitSpan(typ EventType, actor string, value float64, detail string, sc SpanContext) {
	if t == nil {
		return
	}
	at := time.Now().UnixNano()
	t.mu.Lock()
	seq := t.next
	t.next++
	if seq >= uint64(len(t.buf)) {
		t.dropped++
	}
	t.buf[seq%uint64(len(t.buf))] = slot{at: at, value: value, sc: sc, actor: actor, detail: detail, typ: typ}
	t.mu.Unlock()
}

// Snapshot returns the retained events oldest-first plus the number of
// events dropped (evicted) so far.
func (t *Tracer) Snapshot() ([]Event, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	capU := uint64(len(t.buf))
	start := uint64(0)
	if n > capU {
		start = n - capU
	}
	out := make([]Event, 0, n-start)
	for s := start; s < n; s++ {
		out = append(out, t.buf[s%capU].event(s))
	}
	return out, t.dropped
}

// Emitted returns how many events were ever emitted (0 for nil).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events were evicted unread (0 for nil).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Capacity returns the ring's bounded size (0 for nil).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// streamChunk bounds how many events StreamJSON copies out of the ring
// per lock acquisition.
const streamChunk = 256

// StreamJSON writes the retained window as {"dropped":N,"events":[...]}
// without materializing it: events are copied out in streamChunk-sized
// batches under short lock holds and encoded as they go, so exporting a
// large ring costs O(chunk) extra heap instead of O(capacity). Events
// evicted by concurrent writers mid-export are skipped (the dropped count
// in the header is the value at export start). A nil tracer writes an
// empty document.
func (t *Tracer) StreamJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"dropped\":0,\"events\":[]}\n")
		return err
	}
	t.mu.Lock()
	n := t.next
	capU := uint64(len(t.buf))
	dropped := t.dropped
	t.mu.Unlock()
	start := uint64(0)
	if n > capU {
		start = n - capU
	}
	if _, err := fmt.Fprintf(w, "{\"dropped\":%d,\"events\":[", dropped); err != nil {
		return err
	}
	chunk := make([]slot, 0, streamChunk)
	first := true
	for s := start; s < n; {
		hi := min(s+streamChunk, n)
		chunk = chunk[:0]
		t.mu.Lock()
		// Slot s%cap still holds event s exactly when s+cap >= next, so
		// the chunk keeps its events from lo on: the earlier ones were
		// evicted since the export began.
		lo := s
		if t.next > capU {
			lo = min(max(s, t.next-capU), hi)
		}
		for s = lo; s < hi; s++ {
			chunk = append(chunk, t.buf[s%capU])
		}
		t.mu.Unlock()
		for i := range chunk {
			raw, err := json.Marshal(chunk[i].event(lo + uint64(i)))
			if err != nil {
				return err
			}
			if !first {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			first = false
			if _, err := w.Write(raw); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
