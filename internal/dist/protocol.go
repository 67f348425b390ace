// Package dist implements the online distributed execution mode of the SE
// algorithm (Section IV-D): the solver's parallel threads "can run in
// either one single machine or multiple distributed machines, as long as
// those independent threads can communicate with each other with a low
// delay", exchanging only RESET signals and the current system utility.
//
// A Coordinator owns the scheduling instance and listens on TCP. Each
// Worker connects, receives the instance plus a private seed, and runs an
// independent core.Engine; it reports its best utility periodically, and
// the coordinator pushes dynamic join/leave events and the global best
// back. When the global best stabilizes (or the deadline passes) the
// coordinator broadcasts stop and returns the best solution reported by
// any worker.
//
// The wire protocol is newline-delimited JSON — small, debuggable, and
// stdlib-only.
package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
)

// The named fault points of the dist layer (see internal/faultinject).
// Worker points live on the worker process's injector, coordinator points
// on the coordinator's, so one shared spec can arm both roles without
// collisions.
const (
	// FPWorkerDial fires before the worker dials the coordinator.
	FPWorkerDial = "worker.dial"
	// FPWorkerSend / FPWorkerRecv fire on every worker-side protocol
	// message; ActDrop closes the worker's connection.
	FPWorkerSend = "worker.send"
	FPWorkerRecv = "worker.recv"
	// FPWorkerTask fires when the worker starts an assigned task;
	// ActError and ActDrop make the task fail with an injected error.
	FPWorkerTask = "worker.task"
	// FPCoordSend / FPCoordRecv fire on every coordinator-side protocol
	// message; ActDrop closes that worker's connection.
	FPCoordSend = "coordinator.send"
	FPCoordRecv = "coordinator.recv"
	// FPCoordAccept fires per accepted connection; any firing rejects
	// the connection.
	FPCoordAccept = "coordinator.accept"
	// FPCoordAssign fires per task dispatch; ActError and ActDrop make
	// the dispatch fail, orphaning the task for reassignment.
	FPCoordAssign = "coordinator.assign"
)

// MsgType enumerates the wire messages.
type MsgType string

// The protocol messages.
const (
	// MsgHello is the worker's first message.
	MsgHello MsgType = "hello"
	// MsgTask carries the instance and solver configuration to a worker.
	MsgTask MsgType = "task"
	// MsgProgress is a worker's periodic best-utility report.
	MsgProgress MsgType = "progress"
	// MsgEvent pushes a dynamic join/leave event to workers.
	MsgEvent MsgType = "event"
	// MsgBest shares the global best utility with workers.
	MsgBest MsgType = "best"
	// MsgStop tells workers to report their final solution and exit.
	MsgStop MsgType = "stop"
	// MsgResult is a worker's final report.
	MsgResult MsgType = "result"
)

// Envelope is the framing of every message.
type Envelope struct {
	Type MsgType         `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
}

// Hello identifies a connecting worker.
type Hello struct {
	WorkerID string `json:"workerId"`
}

// Task is the assignment sent to a worker.
type Task struct {
	// TaskID correlates a task across dispatch, progress, errors, and
	// traces (failure_log-style context); empty on pre-ID coordinators.
	TaskID string `json:"taskId,omitempty"`
	// Attempt counts how many times this task has been dispatched
	// (1-based); 0 from pre-ID coordinators is treated as 1.
	Attempt int `json:"attempt,omitempty"`
	// TraceID and SpanID carry the coordinator's dispatch span for this
	// attempt, so the worker's solve span lands under it in the merged
	// causal timeline. While a task sits in the orphan queue the fields
	// hold the *previous* attempt's dispatch span, which the re-dispatch
	// uses as its parent — retries stay linked to the original attempt
	// instead of orphaning.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`

	Sizes     []int     `json:"sizes"`
	Latencies []float64 `json:"latencies"`
	DDL       float64   `json:"ddl"`
	Alpha     float64   `json:"alpha"`
	Capacity  int       `json:"capacity"`
	Nmin      int       `json:"nmin"`

	Seed int64 `json:"seed"`
	// Gamma is the number of in-process explorers the worker runs; zero
	// keeps the core default of 1.
	Gamma         int `json:"gamma,omitempty"`
	ReportEvery   int `json:"reportEvery"`
	MaxIterations int `json:"maxIterations"`
}

// Instance reconstructs the core.Instance of a task.
func (t Task) Instance() core.Instance {
	return core.Instance{
		Sizes:     append([]int(nil), t.Sizes...),
		Latencies: append([]float64(nil), t.Latencies...),
		DDL:       t.DDL,
		Alpha:     t.Alpha,
		Capacity:  t.Capacity,
		Nmin:      t.Nmin,
	}
}

// Progress is a worker's periodic report.
type Progress struct {
	WorkerID   string  `json:"workerId"`
	Iterations int     `json:"iterations"`
	Utility    float64 `json:"utility"`
	Feasible   bool    `json:"feasible"`
	// BestN is the solution-thread cardinality n of the reported best (0
	// before any feasible solution); the coordinator exports it so the
	// convergence diagnostics can tell *which* thread f_n is winning
	// across the fleet.
	BestN int `json:"bestN,omitempty"`
	// TraceID and SpanID name the worker's in-flight solve span.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`
	// SentAtNanos is the worker's wall clock at send (UnixNano). The
	// coordinator echoes it in its Best reply, closing an NTP-style
	// exchange the worker uses to estimate its clock offset against the
	// coordinator's clock (see Best's echo fields).
	SentAtNanos int64 `json:"sentAtNanos,omitempty"`
}

// EventMsg mirrors core.Event on the wire.
type EventMsg struct {
	Kind    string  `json:"kind"` // "join" or "leave"
	Index   int     `json:"index"`
	Size    int     `json:"size,omitempty"`
	Latency float64 `json:"latency,omitempty"`
}

// ToEvent converts the wire form to a core.Event.
func (m EventMsg) ToEvent() (core.Event, error) {
	switch m.Kind {
	case "join":
		return core.Event{Kind: core.EventJoin, Index: m.Index, Size: m.Size, Latency: m.Latency}, nil
	case "leave":
		return core.Event{Kind: core.EventLeave, Index: m.Index}, nil
	default:
		return core.Event{}, fmt.Errorf("dist: unknown event kind %q", m.Kind)
	}
}

// FromEvent converts a core.Event to the wire form.
func FromEvent(ev core.Event) EventMsg {
	m := EventMsg{Index: ev.Index, Size: ev.Size, Latency: ev.Latency}
	if ev.Kind == core.EventJoin {
		m.Kind = "join"
	} else {
		m.Kind = "leave"
	}
	return m
}

// Best shares the global best utility.
type Best struct {
	Utility float64 `json:"utility"`
	// EchoSentAtNanos, RecvAtNanos, and ReplyAtNanos close the NTP-style
	// clock-sync exchange: the worker's Progress send time (t0) echoed
	// back verbatim, plus the coordinator's receive (t1) and reply (t2)
	// times on its own clock. The worker stamps arrival (t3) and computes
	// offset = ((t1-t0)+(t2-t3))/2 — seconds to add to its timestamps to
	// land on the coordinator's clock. All zero when the triggering
	// Progress carried no timestamp.
	EchoSentAtNanos int64 `json:"echoSentAtNanos,omitempty"`
	RecvAtNanos     int64 `json:"recvAtNanos,omitempty"`
	ReplyAtNanos    int64 `json:"replyAtNanos,omitempty"`
}

// Result is a worker's final answer.
type Result struct {
	WorkerID   string  `json:"workerId"`
	TaskID     string  `json:"taskId,omitempty"`
	Attempt    int     `json:"attempt,omitempty"`
	Utility    float64 `json:"utility"`
	Selected   []bool  `json:"selected"`
	Iterations int     `json:"iterations"`
	// BestN is the cardinality of the winning solution thread (0 when the
	// result carries no feasible solution).
	BestN int    `json:"bestN,omitempty"`
	Err   string `json:"err,omitempty"`
	// TraceID and SpanID name the solve span that produced this result.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`
}

// codec frames envelopes over a connection. The optional obs sink counts
// every message by type and direction, and the optional injector
// evaluates the role's send/recv fault points on every message (both
// nil-is-off). A write mutex serializes concurrent senders — the
// coordinator's event relay and its per-worker loop share one codec.
type codec struct {
	conn net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	enc  *json.Encoder
	obs  *obs.DistObserver

	fi             *faultinject.Injector
	fiSend, fiRecv string
}

func newCodec(conn net.Conn) *codec {
	return &codec{
		conn: conn,
		r:    bufio.NewReaderSize(conn, 1<<20),
		enc:  json.NewEncoder(conn),
	}
}

// arm attaches a fault injector with the role's send/recv point names.
func (c *codec) arm(fi *faultinject.Injector, sendPoint, recvPoint string) {
	c.fi = fi
	c.fiSend, c.fiRecv = sendPoint, recvPoint
}

// inject evaluates one fault point: ActDelay sleeps and proceeds,
// ActError fails the operation, ActDrop also tears the connection down so
// both ends observe a real conn loss.
func (c *codec) inject(point string) error {
	if c.fi == nil || point == "" {
		return nil
	}
	d := c.fi.Eval(point)
	switch d.Action {
	case faultinject.ActDelay:
		c.obs.FaultInjected(point, "delay")
		time.Sleep(d.Delay)
	case faultinject.ActError:
		c.obs.FaultInjected(point, "error")
		return d.Err
	case faultinject.ActDrop:
		c.obs.FaultInjected(point, "drop")
		_ = c.conn.Close()
		return d.Err
	}
	return nil
}

// send marshals body into an envelope and writes it.
func (c *codec) send(t MsgType, body any) error {
	if err := c.inject(c.fiSend); err != nil {
		return fmt.Errorf("dist: send %s: %w", t, err)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dist: marshal %s: %w", t, err)
	}
	c.wmu.Lock()
	err = c.enc.Encode(Envelope{Type: t, Body: raw})
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("dist: send %s: %w", t, err)
	}
	c.obs.MsgSent(string(t))
	return nil
}

// recv reads the next envelope, honoring the deadline if non-zero. A
// deadline expiry surfaces as a net.Error whose Timeout() is true (the
// raw *net.OpError from the socket), so callers can tell a silent peer
// from a closed connection.
func (c *codec) recv(deadline time.Duration) (Envelope, error) {
	if err := c.inject(c.fiRecv); err != nil {
		return Envelope{}, err
	}
	if deadline > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
			return Envelope{}, err
		}
	} else {
		if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
			return Envelope{}, err
		}
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return Envelope{}, err
	}
	var env Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Envelope{}, fmt.Errorf("dist: decode envelope: %w", err)
	}
	c.obs.MsgRecv(string(env.Type))
	return env, nil
}

// decode unmarshals an envelope body.
func decode[T any](env Envelope) (T, error) {
	var v T
	if err := json.Unmarshal(env.Body, &v); err != nil {
		return v, fmt.Errorf("dist: decode %s body: %w", env.Type, err)
	}
	return v, nil
}
