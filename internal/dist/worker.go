package dist

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
)

// Worker errors.
var ErrBadTask = errors.New("dist: malformed task")

// Worker timing constants.
const (
	// dialTimeout bounds each connection attempt.
	dialTimeout = 5 * time.Second
	// idleTimeout bounds the wait for a follow-up task after delivering
	// a result; expiry is a clean exit. It doubles as the linger that
	// keeps the socket open until the coordinator has consumed the
	// result (closing with unread best-utility pushes buffered would
	// turn the close into a TCP RST and could discard the report).
	idleTimeout = 3 * time.Second
)

// Worker runs SE exploration tasks against a coordinator.
type Worker struct {
	// ID labels the worker in reports and seeds its reconnect jitter,
	// so co-located workers never share a reconnect schedule. Required.
	ID string
	// Throttle, when positive, sleeps this long every 100 transition
	// rounds. It paces the chain against wall-clock event schedules (and
	// keeps small instances from finishing before online events arrive).
	Throttle time.Duration
	// MaxAttempts caps how many sessions (the initial dial plus
	// reconnects) the worker makes before giving up on a retryable
	// failure — a dial error, or a connection lost before the
	// coordinator said stop. Default 1: no retry, the pre-hardening
	// behavior.
	MaxAttempts int
	// BackoffBase is the delay before the first reconnect; attempt k
	// waits BackoffBase·2^(k-1) plus up to 50% jitter. Default 50 ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. Default 2 s.
	BackoffCap time.Duration
	// FI, when non-nil, evaluates the worker-side fault points
	// (worker.dial / send / recv / task). Nil is off.
	FI *faultinject.Injector
	// Obs, when non-nil, receives worker-side protocol telemetry:
	// per-type message counts, control-queue depth, task errors, and
	// fault/reconnect counters.
	Obs *obs.DistObserver
	// SEObs, when non-nil, is threaded into the worker's SE engine so
	// its kernel counters land in the same registry as the protocol's.
	SEObs *obs.SEObserver
}

// IsDialError reports whether err comes from a failed dial — the
// coordinator's address never answered (connection refused, no route,
// dial timeout). Long-lived worker processes use it to tell "the
// coordinator is gone, exit cleanly" from a session that died mid-task:
// a dial failure after exhausted retries means there is no session left
// to rejoin, while any other error happened on an established
// connection. Injected worker.dial faults deliberately do not match —
// they wrap faultinject.ErrInjected, not a *net.OpError.
func IsDialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// taskRef renders the failure-log correlation context for a task: its
// ID (assigned by the coordinator) and dispatch attempt.
func taskRef(task Task) string {
	id := task.TaskID
	if id == "" {
		id = "?"
	}
	attempt := task.Attempt
	if attempt < 1 {
		attempt = 1
	}
	return fmt.Sprintf("task %s attempt %d", id, attempt)
}

// Run dials the coordinator, executes assigned tasks until the
// coordinator says stop (or the idle window after a result expires), and
// returns the last result it reported. Retryable failures — dial errors
// and connections lost before a stop — are retried with jittered
// exponential backoff while MaxAttempts allows.
func (w Worker) Run(addr string) (Result, error) {
	if w.ID == "" {
		return Result{}, errors.New("dist: worker needs an ID")
	}
	attempts := w.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	base := w.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	capD := w.BackoffCap
	if capD <= 0 {
		capD = 2 * time.Second
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.ID))
	jitter := rand.New(rand.NewSource(int64(h.Sum64())))

	var res Result
	var retryable bool
	var err error
	for attempt := 1; ; attempt++ {
		res, retryable, err = w.session(addr)
		if err == nil || !retryable || attempt >= attempts {
			return res, err
		}
		delay := base << (attempt - 1)
		if delay <= 0 || delay > capD {
			delay = capD
		}
		delay += time.Duration(jitter.Int63n(int64(delay)/2 + 1))
		w.Obs.WorkerReconnected(w.ID, attempt+1)
		time.Sleep(delay)
	}
}

// takeErr drains a buffered read error without blocking.
func takeErr(ch <-chan error) error {
	select {
	case err := <-ch:
		return err
	default:
		return nil
	}
}

// session is one connection's lifetime: dial, hello, then serve tasks
// until stop, idle expiry, or connection loss. The second return reports
// whether a failure is retryable (the coordinator may still have work
// for a fresh connection).
func (w Worker) session(addr string) (Result, bool, error) {
	if d := w.FI.Eval(FPWorkerDial); d.Action != faultinject.ActNone {
		if d.Action == faultinject.ActDelay {
			w.Obs.FaultInjected(FPWorkerDial, "delay")
			time.Sleep(d.Delay)
		} else {
			w.Obs.FaultInjected(FPWorkerDial, d.Action.String())
			return Result{}, true, fmt.Errorf("dist: dial %s: %w", addr, d.Err)
		}
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return Result{}, true, fmt.Errorf("dist: dial %s: %w", addr, err)
	}
	defer conn.Close()
	c := newCodec(conn)
	c.obs = w.Obs
	c.arm(w.FI, FPWorkerSend, FPWorkerRecv)
	if err := c.send(MsgHello, Hello{WorkerID: w.ID}); err != nil {
		return Result{}, true, err
	}

	// Reader goroutine for the whole session: forwards control messages,
	// closes ctrl on connection loss. Each envelope is stamped at read
	// time — the t3 of the clock-sync exchange — so queueing delay in
	// ctrl never contaminates the offset estimate.
	ctrl := make(chan timedEnv, 16)
	readErr := make(chan error, 1)
	go func() {
		defer close(ctrl)
		for {
			env, err := c.recv(0)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					select {
					case readErr <- err:
					default:
					}
				}
				return
			}
			ctrl <- timedEnv{env: env, at: time.Now()}
		}
	}()

	var last Result
	delivered := false
	for {
		wait := 30 * time.Second // generous window for the first task
		if delivered {
			wait = idleTimeout
		}
		timer := time.NewTimer(wait)
		var te timedEnv
		var open bool
		select {
		case te, open = <-ctrl:
			timer.Stop()
		case <-timer.C:
			if delivered {
				return last, false, nil // no more work; clean exit
			}
			return last, true, fmt.Errorf("dist: waiting for task: timeout after %v", wait)
		}
		if !open {
			if err := takeErr(readErr); err != nil {
				return last, !delivered, err
			}
			if delivered {
				return last, false, nil
			}
			return last, true, errors.New("dist: connection closed before task")
		}
		switch te.env.Type {
		case MsgTask:
			task, derr := decode[Task](te.env)
			if derr != nil {
				return last, false, derr
			}
			out := w.runTask(c, ctrl, readErr, task)
			if out.connErr != nil {
				return out.res, true, out.connErr
			}
			last = out.res
			delivered = true
			if out.taskErr != nil {
				return last, false, out.taskErr
			}
			if out.stopped {
				return last, false, nil
			}
		case MsgStop:
			return last, false, nil
		default:
			if !delivered {
				return last, false, fmt.Errorf("%w: got %s before task", ErrBadTask, te.env.Type)
			}
			// Best/event pushes between tasks are informational.
		}
	}
}

// timedEnv is an envelope stamped with its read time — the arrival
// timestamp (t3) the clock-sync estimate needs.
type timedEnv struct {
	env Envelope
	at  time.Time
}

// taskOutcome is how one task ended: connErr means the connection died
// and the result may never have reached the coordinator (the session is
// retryable); taskErr is a task-level failure that was reported over the
// wire; stopped means the coordinator's stop arrived during the run.
type taskOutcome struct {
	res     Result
	stopped bool
	connErr error
	taskErr error
}

// runTask executes one assigned task to completion, relaying progress
// and draining control messages between step batches.
func (w Worker) runTask(c *codec, ctrl <-chan timedEnv, readErr <-chan error, task Task) taskOutcome {
	// The solve span parents under the coordinator's dispatch span
	// carried in the task's wire fields, stitching this worker's work
	// into the coordinator-rooted epoch timeline.
	sp := w.Obs.TraceCtx().StartSpan("solve", w.ID,
		obs.SpanContext{TraceID: task.TraceID, SpanID: task.SpanID})
	sc := sp.Context()
	if d := w.FI.Eval(FPWorkerTask); d.Action != faultinject.ActNone {
		switch d.Action {
		case faultinject.ActDelay:
			w.Obs.FaultInjected(FPWorkerTask, "delay")
			time.Sleep(d.Delay)
		case faultinject.ActDrop:
			// Simulated worker crash mid-task: tear the connection down so
			// the coordinator sees a real loss and reassigns.
			w.Obs.FaultInjected(FPWorkerTask, "drop")
			sp.FinishOutcome("crash")
			_ = c.conn.Close()
			res := Result{WorkerID: w.ID, TaskID: task.TaskID, Attempt: task.Attempt, TraceID: sc.TraceID, SpanID: sc.SpanID}
			return taskOutcome{res: res, connErr: fmt.Errorf("dist: %s: %w", taskRef(task), d.Err)}
		default:
			w.Obs.FaultInjected(FPWorkerTask, "error")
			err := fmt.Errorf("dist: %s (worker %s): %w", taskRef(task), w.ID, d.Err)
			w.Obs.TaskFailed(w.ID, err.Error())
			sp.FinishOutcome("error")
			res := Result{WorkerID: w.ID, TaskID: task.TaskID, Attempt: task.Attempt, Err: err.Error(), TraceID: sc.TraceID, SpanID: sc.SpanID}
			if serr := c.send(MsgResult, res); serr != nil {
				return taskOutcome{res: res, connErr: serr}
			}
			return taskOutcome{res: res, taskErr: err}
		}
	}

	engine, err := core.NewEngine(task.Instance(), core.SEConfig{
		Seed:  task.Seed,
		Gamma: task.Gamma,
		Obs:   w.SEObs,
	})
	if err != nil {
		err = fmt.Errorf("dist: %s (worker %s): %w", taskRef(task), w.ID, err)
		w.Obs.TaskFailed(w.ID, err.Error())
		sp.FinishOutcome("bad-task")
		res := Result{WorkerID: w.ID, TaskID: task.TaskID, Attempt: task.Attempt, Err: err.Error(), TraceID: sc.TraceID, SpanID: sc.SpanID}
		if serr := c.send(MsgResult, res); serr != nil {
			return taskOutcome{res: res, connErr: serr}
		}
		return taskOutcome{res: res, taskErr: err}
	}

	reportEvery := task.ReportEvery
	if reportEvery <= 0 {
		reportEvery = 200
	}
	maxIters := task.MaxIterations
	if maxIters <= 0 {
		maxIters = 20000
	}

	// Rounds advance through StepN batches so the concurrent kernel is not
	// re-launched per round; batches never cross a report boundary, a
	// throttle boundary, or the iteration cap, and control messages are
	// drained between batches (events land at batch edges, which are the
	// kernel's synchronization points anyway).
	const batchRounds = 64
	stopSeen := false
	ctrlClosed := false
	var applyErr error
	for iter := 0; iter < maxIters && !stopSeen; {
		next := iter + batchRounds
		if rb := (iter/reportEvery + 1) * reportEvery; rb < next {
			next = rb
		}
		if w.Throttle > 0 {
			if tb := (iter/100 + 1) * 100; tb < next {
				next = tb
			}
		}
		if next > maxIters {
			next = maxIters
		}
		engine.StepN(next - iter)
		iter = next
		if w.Throttle > 0 && iter%100 == 0 {
			time.Sleep(w.Throttle)
		}
		if iter%reportEvery == 0 {
			_, bErr := engine.Best()
			if err := c.send(MsgProgress, Progress{
				WorkerID:    w.ID,
				Iterations:  engine.Iterations(),
				Utility:     engine.BestUtility(),
				Feasible:    bErr == nil,
				BestN:       engine.BestCardinality(),
				TraceID:     sc.TraceID,
				SpanID:      sc.SpanID,
				SentAtNanos: time.Now().UnixNano(),
			}); err != nil {
				sp.FinishOutcome("conn-lost")
				res := Result{WorkerID: w.ID, TaskID: task.TaskID, Attempt: task.Attempt, Iterations: engine.Iterations(), TraceID: sc.TraceID, SpanID: sc.SpanID}
				return taskOutcome{res: res, connErr: fmt.Errorf("dist: %s: report progress: %w", taskRef(task), err)}
			}
		}
		// Drain control messages without blocking the chain.
		w.Obs.SetQueueDepth(len(ctrl))
		for drained := false; !drained; {
			select {
			case te, ok := <-ctrl:
				if !ok {
					ctrlClosed = true
					drained = true
					break
				}
				switch te.env.Type {
				case MsgStop:
					stopSeen = true
				case MsgEvent:
					m, err := decode[EventMsg](te.env)
					if err == nil {
						if ev, err := m.ToEvent(); err == nil {
							if err := engine.ApplyEvent(ev); err != nil && applyErr == nil {
								applyErr = err
							}
						}
					}
				case MsgBest:
					// Informational for the chain, but it closes the
					// clock-sync exchange when it echoes one of our
					// Progress timestamps: offset = ((t1-t0)+(t2-t3))/2
					// is the seconds to add to this worker's clock to
					// land on the coordinator's.
					if b, err := decode[Best](te.env); err == nil && b.EchoSentAtNanos != 0 {
						t0, t1, t2, t3 := b.EchoSentAtNanos, b.RecvAtNanos, b.ReplyAtNanos, te.at.UnixNano()
						offset := float64((t1-t0)+(t2-t3)) / 2 / 1e9
						rtt := float64((t3-t0)-(t2-t1)) / 1e9
						w.Obs.ClockSynced(w.ID, offset, rtt)
					}
				}
			default:
				drained = true
			}
		}
		if ctrlClosed && !stopSeen {
			// Connection lost mid-task with no stop: the task is orphaned
			// coordinator-side; a fresh session may pick it back up.
			err := takeErr(readErr)
			if err == nil {
				err = errors.New("connection lost mid-task")
			}
			sp.FinishOutcome("conn-lost")
			res := Result{WorkerID: w.ID, TaskID: task.TaskID, Attempt: task.Attempt, Iterations: engine.Iterations(), TraceID: sc.TraceID, SpanID: sc.SpanID}
			return taskOutcome{res: res, connErr: fmt.Errorf("dist: %s: %w", taskRef(task), err)}
		}
		if ctrlClosed {
			break
		}
	}

	res := Result{WorkerID: w.ID, TaskID: task.TaskID, Attempt: task.Attempt, Iterations: engine.Iterations(), TraceID: sc.TraceID, SpanID: sc.SpanID}
	if applyErr != nil {
		res.Err = fmt.Errorf("dist: %s (worker %s): apply event: %w", taskRef(task), w.ID, applyErr).Error()
	} else if sol, err := engine.Best(); err != nil {
		res.Err = fmt.Errorf("dist: %s (worker %s): %w", taskRef(task), w.ID, err).Error()
	} else {
		res.Utility = sol.Utility
		res.Selected = sol.Selected
		res.BestN = sol.Count
	}
	if res.Err != "" {
		w.Obs.TaskFailed(w.ID, res.Err)
		sp.FinishOutcome("error")
	} else {
		sp.Finish()
	}
	if serr := c.send(MsgResult, res); serr != nil && !stopSeen && !ctrlClosed {
		return taskOutcome{res: res, connErr: fmt.Errorf("dist: %s: report result: %w", taskRef(task), serr)}
	}
	return taskOutcome{res: res, stopped: stopSeen || ctrlClosed}
}
