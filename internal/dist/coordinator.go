package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
)

// ErrNoWorkers reports that no worker connected before AcceptTimeout.
var ErrNoWorkers = errors.New("dist: no workers connected")

// CoordinatorConfig tunes a coordinated run.
type CoordinatorConfig struct {
	// Instance is the epoch's scheduling input.
	Instance core.Instance
	// Workers is how many workers to wait for before starting. Required.
	// Fewer workers at AcceptTimeout expiry is tolerated: the session
	// proceeds with the connected subset, and with zero workers the
	// coordinator degrades to a local in-process solve.
	Workers int
	// AcceptTimeout bounds the wait for workers to connect. Default 10 s.
	AcceptTimeout time.Duration
	// RunTimeout bounds the exploration after start. Default 30 s.
	RunTimeout time.Duration
	// StableReports stops the run early once this many consecutive
	// progress reports arrive without a global-best improvement.
	// Default 20.
	StableReports int
	// ReportEvery asks workers to report every N iterations. Default 200.
	ReportEvery int
	// MaxIterations caps each worker's rounds. Default 20000.
	MaxIterations int
	// HeartbeatTimeout bounds the silence tolerated from a worker
	// mid-run. A worker that sends neither progress nor a result within
	// the window is declared dead, its connection is closed, and its
	// task becomes eligible for reassignment. Default 10 s.
	HeartbeatTimeout time.Duration
	// MaxTaskAttempts caps how many times one task may be dispatched
	// (the first dispatch counts). A task orphaned by a dead worker is
	// re-dispatched — to a surviving worker once it finishes its own
	// task, or to a worker that reconnects mid-run — until the cap is
	// reached, after which it is abandoned. Default 3.
	MaxTaskAttempts int
	// Seed mirrors core.SEConfig.Seed; task g receives TaskSeed(g). β
	// is core's default.
	Seed int64
	// Gamma is the explorer count each worker machine runs in-process
	// (core.SEConfig.Gamma); zero keeps the core default of 1.
	Gamma int
	// Events are pushed to all workers at the given wall-clock offsets
	// after the run starts.
	Events []TimedEvent
	// FI, when non-nil, evaluates the coordinator-side fault points
	// (coordinator.accept / assign / send / recv). Nil is off.
	FI *faultinject.Injector
	// Obs, when non-nil, receives coordinator-side telemetry: per-type
	// message counts, connected-worker gauge, per-task latency, fault
	// and retry counters, and the session best-utility gauge. Nil
	// disables every hook.
	Obs *obs.DistObserver
	// Parent, when valid, parents the session's root "epoch" span (so an
	// epoch pipeline driving the coordinator owns the whole timeline);
	// the zero value starts a fresh root trace.
	Parent obs.SpanContext
}

// TimedEvent schedules a dynamic event relative to run start.
type TimedEvent struct {
	After time.Duration
	Event core.Event
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.AcceptTimeout <= 0 {
		c.AcceptTimeout = 10 * time.Second
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 30 * time.Second
	}
	if c.StableReports <= 0 {
		c.StableReports = 20
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 200
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 20000
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.MaxTaskAttempts <= 0 {
		c.MaxTaskAttempts = 3
	}
	return c
}

// Coordinator runs the distributed SE session.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu       sync.Mutex
	best     Result
	haveBest bool
	improves int // report counter since last improvement
	// lastResults / lastLocal capture the most recent Run's per-task
	// results and whether it degraded to the local-fallback solve — the
	// provenance the decision journal records for replay.
	lastResults []Result
	lastLocal   bool
}

// NewCoordinator validates the instance and starts listening on addr
// (e.g. "127.0.0.1:0").
func NewCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: workers = %d, need >= 1", cfg.Workers)
	}
	inst := cfg.Instance.Clone()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cfg.Instance = inst
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	return &Coordinator{cfg: cfg, ln: ln}, nil
}

// Addr returns the listening address for workers to dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// TaskResults returns the per-task results collected by the most recent
// Run (every settled attempt, failed ones included) and whether that run
// fell back to the local in-process solve. The slice is a copy.
func (co *Coordinator) TaskResults() ([]Result, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return append([]Result(nil), co.lastResults...), co.lastLocal
}

// setOutcome records a Run's provenance for TaskResults.
func (co *Coordinator) setOutcome(results []Result, local bool) {
	co.mu.Lock()
	co.lastResults = append(co.lastResults[:0], results...)
	co.lastLocal = local
	co.mu.Unlock()
}

// TaskSeed returns the seed the g-th task was dispatched with (the
// deterministic per-task derivation replay relies on).
func (co *Coordinator) TaskSeed(g int) int64 { return co.cfg.Seed + int64(g)*7919 }

// SolverConfig returns the SE configuration the session's solves derive
// from: worker tasks carry these fields on the wire (each with its
// TaskSeed), and the local-fallback kernel solves under them directly.
func (co *Coordinator) SolverConfig() core.SEConfig {
	return core.SEConfig{
		Seed:     co.cfg.Seed,
		Gamma:    co.cfg.Gamma,
		MaxIters: co.cfg.MaxIterations,
	}
}

// Close releases the listener.
func (co *Coordinator) Close() error { return co.ln.Close() }

// session is the per-Run recovery state: the live connection set, the
// orphaned-task queue, and the outstanding-task count that decides when
// the run is over.
type session struct {
	co         *Coordinator
	dispatched time.Time
	// root is the session's "epoch" span; every first-attempt dispatch
	// span parents under it.
	root *obs.Span

	mu      sync.Mutex
	live    map[*codec]bool
	all     []*codec
	results []Result
	pending int
	stopped bool

	orphans  chan Task
	stopOnce sync.Once
	stopDone chan struct{}
	wg       sync.WaitGroup

	// evmu orders event delivery against task dispatch: every assign
	// replays the full event history to the task's fresh engine, and
	// holding evmu across both the replay and the live pushes means a
	// connection never sees an event duplicated or out of order relative
	// to its current task.
	evmu     sync.Mutex
	events   []EventMsg
	caughtUp map[*codec]bool
}

// Run accepts the configured number of workers, distributes the task,
// relays events, detects and recovers from worker failures, and returns
// the best solution any worker reported. If every worker is lost (or none
// ever connects) the coordinator degrades to a local in-process solve of
// the same instance. The instance returned alongside reflects join
// events so the selection can be interpreted.
func (co *Coordinator) Run() (core.Solution, core.Instance, error) {
	inst := co.cfg.Instance.Clone()
	root := co.cfg.Obs.TraceCtx().StartSpan("epoch", "coordinator", co.cfg.Parent)
	defer root.Finish()
	conns, err := co.acceptWorkers()
	if err != nil && !errors.Is(err, ErrNoWorkers) {
		root.FinishOutcome("accept-failed")
		return core.Solution{}, inst, err
	}
	if len(conns) == 0 {
		co.setOutcome(nil, true)
		sol, lerr := co.localSolve(inst, root.Context())
		return sol, inst, lerr
	}

	s := &session{
		co:         co,
		dispatched: time.Now(),
		root:       root,
		live:       make(map[*codec]bool, len(conns)),
		orphans:    make(chan Task, len(conns)),
		stopDone:   make(chan struct{}),
		pending:    len(conns),
		caughtUp:   make(map[*codec]bool),
	}
	defer func() {
		s.mu.Lock()
		all := append([]*codec(nil), s.all...)
		s.mu.Unlock()
		for _, c := range all {
			_ = c.conn.Close()
		}
	}()

	timer := time.AfterFunc(co.cfg.RunTimeout, s.stopAll)
	defer timer.Stop()

	// Hand out tasks with per-worker seeds and start one serve loop per
	// connection; keep accepting late (reconnecting) workers so orphaned
	// tasks can land on fresh connections mid-run.
	for g, c := range conns {
		s.register(c)
		task := co.task(g)
		s.wg.Add(1)
		go func(c *codec, task Task) {
			defer s.wg.Done()
			s.serve(c, &task)
		}(c, task)
	}
	s.wg.Add(1)
	go s.acceptLate()

	// Apply joins to the local instance copy as they are pushed, the way
	// a worker's engine applies them, so the final selection maps onto
	// the right shard set and verify sees the features the worker saw: a
	// join naming an existing shard is a rejoin and refreshes its size
	// and latency, any other join appends. Nothing else touches inst
	// until this relay returns. Sends to workers that already finished
	// are best-effort — a worker may legitimately have stopped or died,
	// which the session tolerates everywhere else too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, te := range co.cfg.Events {
			if wait := te.After - time.Since(start); wait > 0 {
				select {
				case <-time.After(wait):
				case <-s.stopDone:
					return
				}
			}
			if ev := te.Event; ev.Kind == core.EventJoin {
				if ev.Index >= 0 && ev.Index < inst.NumShards() {
					inst.Sizes[ev.Index] = ev.Size
					inst.Latencies[ev.Index] = ev.Latency
				} else {
					inst.Sizes = append(inst.Sizes, ev.Size)
					inst.Latencies = append(inst.Latencies, ev.Latency)
				}
			}
			s.pushEvent(FromEvent(te.Event))
		}
	}()

	s.wg.Wait()
	s.stopAll()
	<-done
	// Stop admitting stragglers: a worker re-dialing after the session
	// ended would otherwise sit in the accept backlog waiting for a task
	// that will never come. Closed here (not in stopAll) so acceptLate's
	// final iterations see the deadline kick, not a surprise close.
	_ = co.ln.Close()

	// Anything still queued never found a worker before the run ended.
	for {
		select {
		case t := <-s.orphans:
			co.cfg.Obs.TaskAbandoned(t.TaskID, t.Attempt)
			continue
		default:
		}
		break
	}

	// The event relay has returned, so inst is final: every result is
	// checked against it before it is ranked.
	sol, ok := co.pickBest(&inst, s.results)
	if !ok {
		co.setOutcome(s.results, true)
		sol, lerr := co.localSolve(inst, root.Context())
		return sol, inst, lerr
	}
	co.setOutcome(s.results, false)
	return sol, inst, nil
}

// task builds the g-th initial assignment.
func (co *Coordinator) task(g int) Task {
	return Task{
		TaskID:        fmt.Sprintf("task-%d", g),
		Attempt:       1,
		Sizes:         co.cfg.Instance.Sizes,
		Latencies:     co.cfg.Instance.Latencies,
		DDL:           co.cfg.Instance.DDL,
		Alpha:         co.cfg.Instance.Alpha,
		Capacity:      co.cfg.Instance.Capacity,
		Nmin:          co.cfg.Instance.Nmin,
		Seed:          co.TaskSeed(g),
		Gamma:         co.cfg.Gamma,
		ReportEvery:   co.cfg.ReportEvery,
		MaxIterations: co.cfg.MaxIterations,
	}
}

// localSolve is the graceful-degradation path: solve the instance as
// currently known with the in-process SE kernel, using the session's own
// solver parameters. Its span parents under the session root so the
// degradation stays inside the epoch's causal timeline.
func (co *Coordinator) localSolve(inst core.Instance, parent obs.SpanContext) (core.Solution, error) {
	sp := co.cfg.Obs.TraceCtx().StartSpan("local-solve", "coordinator", parent)
	co.cfg.Obs.LocalFallbackUsed()
	local := inst.Clone()
	if err := local.Validate(); err != nil {
		sp.FinishOutcome("invalid-instance")
		return core.Solution{}, err
	}
	sol, _, err := core.NewSE(co.SolverConfig()).Solve(local)
	if err != nil {
		sp.FinishOutcome("error")
	} else {
		sp.Finish()
	}
	return sol, err
}

// acceptWorkers blocks until the configured number of workers said hello
// or the accept window closes. A partial house is tolerated: at deadline
// expiry the session proceeds with whoever connected; only an empty house
// returns ErrNoWorkers.
func (co *Coordinator) acceptWorkers() ([]*codec, error) {
	deadline := time.Now().Add(co.cfg.AcceptTimeout)
	var conns []*codec
	for len(conns) < co.cfg.Workers {
		if dl, ok := co.ln.(*net.TCPListener); ok {
			if err := dl.SetDeadline(deadline); err != nil {
				return nil, err
			}
		}
		conn, err := co.ln.Accept()
		if err != nil {
			if len(conns) > 0 {
				return conns, nil // partial house: run with what we have
			}
			return nil, fmt.Errorf("%w: %v", ErrNoWorkers, err)
		}
		if d := co.cfg.FI.Eval(FPCoordAccept); d.Action != faultinject.ActNone {
			co.cfg.Obs.FaultInjected(FPCoordAccept, d.Action.String())
			_ = conn.Close()
			continue
		}
		c := newCodec(conn)
		c.obs = co.cfg.Obs
		c.arm(co.cfg.FI, FPCoordSend, FPCoordRecv)
		env, err := c.recv(co.cfg.AcceptTimeout)
		if err != nil || env.Type != MsgHello {
			_ = conn.Close()
			continue
		}
		conns = append(conns, c)
		co.cfg.Obs.SetWorkersConnected(len(conns))
	}
	return conns, nil
}

// acceptLate admits workers that connect after the run started — chiefly
// workers re-dialing after a dropped connection — and parks each on the
// orphan queue so it can pick up a task lost by a dead worker.
func (s *session) acceptLate() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopDone:
			return
		default:
		}
		if dl, ok := s.co.ln.(*net.TCPListener); ok {
			_ = dl.SetDeadline(time.Now().Add(500 * time.Millisecond))
		}
		conn, err := s.co.ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return // listener closed
		}
		if d := s.co.cfg.FI.Eval(FPCoordAccept); d.Action != faultinject.ActNone {
			s.co.cfg.Obs.FaultInjected(FPCoordAccept, d.Action.String())
			_ = conn.Close()
			continue
		}
		c := newCodec(conn)
		c.obs = s.co.cfg.Obs
		c.arm(s.co.cfg.FI, FPCoordSend, FPCoordRecv)
		env, err := c.recv(s.co.cfg.HeartbeatTimeout)
		if err != nil || env.Type != MsgHello {
			_ = conn.Close()
			continue
		}
		s.register(c)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(c, nil)
		}()
	}
}

// serve owns one worker connection: dispatch a task, relay its progress,
// collect its result, and keep feeding it orphaned tasks until the
// session ends. task == nil parks the connection on the orphan queue
// first (late joiners).
func (s *session) serve(c *codec, task *Task) {
	defer func() { _ = c.conn.Close() }()
	for {
		if task == nil {
			next, ok := s.awaitOrphan()
			if !ok {
				// Session over: a best-effort stop lets an idle worker
				// exit cleanly instead of timing out.
				_ = c.send(MsgStop, struct{}{})
				s.unregister(c)
				return
			}
			task = &next
		}
		sp := s.startDispatch(task)
		if err := s.assign(c, *task); err != nil {
			sp.FinishOutcome("assign-failed")
			s.workerDead(c, task)
			return
		}
		cur := *task
		task = nil
		if !s.serveTask(c, cur, sp) {
			return
		}
	}
}

// startDispatch opens the per-attempt dispatch span and stamps its
// context into the task's wire fields (the worker parents its solve span
// under it). A first dispatch parents to the session root; a re-dispatch
// finds the previous attempt's span in the same fields — carried through
// the orphan queue — and parents under *that*, so retried attempts chain
// back to the original instead of orphaning.
func (s *session) startDispatch(task *Task) *obs.Span {
	parent := obs.SpanContext{TraceID: task.TraceID, SpanID: task.SpanID}
	if !parent.Valid() {
		parent = s.root.Context()
	}
	attempt := task.Attempt
	if attempt < 1 {
		attempt = 1
	}
	sp := s.co.cfg.Obs.TraceCtx().StartSpan("dispatch", fmt.Sprintf("%s#%d", task.TaskID, attempt), parent)
	sc := sp.Context()
	task.TraceID, task.SpanID = sc.TraceID, sc.SpanID
	return sp
}

// assign dispatches one task over the connection, subject to the
// coordinator.assign fault point, then replays the full event history so
// the task's fresh engine catches up with the run's dynamics before live
// pushes resume for this connection.
func (s *session) assign(c *codec, task Task) error {
	if d := s.co.cfg.FI.Eval(FPCoordAssign); d.Action != faultinject.ActNone {
		switch d.Action {
		case faultinject.ActDelay:
			s.co.cfg.Obs.FaultInjected(FPCoordAssign, "delay")
			time.Sleep(d.Delay)
		default:
			s.co.cfg.Obs.FaultInjected(FPCoordAssign, d.Action.String())
			if d.Action == faultinject.ActDrop {
				_ = c.conn.Close()
			}
			return d.Err
		}
	}
	s.evmu.Lock()
	defer s.evmu.Unlock()
	s.caughtUp[c] = false
	if err := c.send(MsgTask, task); err != nil {
		return err
	}
	for _, m := range s.events {
		if err := c.send(MsgEvent, m); err != nil {
			return err
		}
	}
	s.caughtUp[c] = true
	return nil
}

// pushEvent records a dynamic event and forwards it to every caught-up
// connection (those mid-task with the full prior history applied).
func (s *session) pushEvent(m EventMsg) {
	s.evmu.Lock()
	defer s.evmu.Unlock()
	s.events = append(s.events, m)
	for _, c := range s.snapshotLive() {
		if s.caughtUp[c] {
			_ = c.send(MsgEvent, m)
		}
	}
}

// serveTask relays one task's progress until its result arrives. It
// returns true when the task resolved (the serve loop may take more
// work) and false when the connection died (workerDead has already
// handled the orphaning).
func (s *session) serveTask(c *codec, cur Task, sp *obs.Span) bool {
	for {
		env, err := c.recv(s.co.cfg.HeartbeatTimeout)
		if err != nil {
			// Timeout (silent worker) and connection loss both mean the
			// worker is gone mid-task; the run continues without it.
			sp.FinishOutcome("worker-dead")
			s.workerDead(c, &cur)
			return false
		}
		switch env.Type {
		case MsgProgress:
			recvAt := time.Now() // t1 of the clock-sync exchange
			p, derr := decode[Progress](env)
			if derr != nil {
				continue
			}
			if s.co.noteProgress(p) {
				s.stopAll()
			}
			// Share the global best back (informational; the paper's
			// "current system utility" exchange).
			s.co.mu.Lock()
			bu := s.co.best.Utility
			have := s.co.haveBest
			s.co.mu.Unlock()
			if have {
				b := Best{Utility: bu}
				if p.SentAtNanos != 0 {
					b.EchoSentAtNanos = p.SentAtNanos
					b.RecvAtNanos = recvAt.UnixNano()
					b.ReplyAtNanos = time.Now().UnixNano()
				}
				_ = c.send(MsgBest, b)
			}
		case MsgResult:
			r, derr := decode[Result](env)
			if derr != nil {
				continue
			}
			s.co.cfg.Obs.ObserveTaskLatency(time.Since(s.dispatched).Seconds())
			if r.Err != "" {
				s.co.cfg.Obs.TaskFailed(r.WorkerID, r.Err)
				sp.FinishOutcome("error")
			} else {
				sp.Finish()
			}
			s.resolve(&cur, r)
			return true
		}
	}
}

// resolve folds a task's result into the session: failed results are
// retried while attempts remain, anything else settles the task. When
// the last outstanding task settles the session stops.
func (s *session) resolve(cur *Task, r Result) {
	s.mu.Lock()
	s.results = append(s.results, r)
	if r.Err != "" && !s.stopped && cur.Attempt < s.co.cfg.MaxTaskAttempts {
		next := *cur
		next.Attempt++
		s.co.cfg.Obs.TaskReassigned(next.TaskID, next.Attempt)
		s.orphans <- next
		s.mu.Unlock()
		return
	}
	if r.Err != "" {
		s.co.cfg.Obs.TaskAbandoned(cur.TaskID, cur.Attempt)
	}
	s.pending--
	stop := s.pending <= 0
	s.mu.Unlock()
	if stop {
		s.stopAll()
	}
}

// workerDead handles a connection lost mid-task: close it, and either
// queue the task for another worker (attempts remaining) or abandon it.
func (s *session) workerDead(c *codec, cur *Task) {
	s.unregister(c)
	_ = c.conn.Close()
	if cur == nil {
		return
	}
	s.mu.Lock()
	if !s.stopped && cur.Attempt < s.co.cfg.MaxTaskAttempts {
		next := *cur
		next.Attempt++
		s.co.cfg.Obs.TaskReassigned(next.TaskID, next.Attempt)
		s.orphans <- next
		s.mu.Unlock()
		return
	}
	s.co.cfg.Obs.TaskAbandoned(cur.TaskID, cur.Attempt)
	s.pending--
	stop := s.pending <= 0
	s.mu.Unlock()
	if stop {
		s.stopAll()
	}
}

// awaitOrphan blocks until a task needs a worker or the session ends.
func (s *session) awaitOrphan() (Task, bool) {
	select {
	case t := <-s.orphans:
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			s.co.cfg.Obs.TaskAbandoned(t.TaskID, t.Attempt)
			return Task{}, false
		}
		return t, true
	case <-s.stopDone:
		return Task{}, false
	}
}

func (s *session) register(c *codec) {
	s.mu.Lock()
	s.live[c] = true
	s.all = append(s.all, c)
	s.mu.Unlock()
}

func (s *session) unregister(c *codec) {
	s.mu.Lock()
	delete(s.live, c)
	s.mu.Unlock()
}

func (s *session) snapshotLive() []*codec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*codec, 0, len(s.live))
	for c := range s.live {
		out = append(out, c)
	}
	return out
}

// stopAll ends the session exactly once: flag it stopped, tell every
// live worker, release parked serve loops, and kick the late-accept
// listener out of its blocking Accept.
func (s *session) stopAll() {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.stopped = true
		conns := make([]*codec, 0, len(s.live))
		for c := range s.live {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			_ = c.send(MsgStop, struct{}{})
		}
		close(s.stopDone)
		if dl, ok := s.co.ln.(*net.TCPListener); ok {
			_ = dl.SetDeadline(time.Now())
		}
	})
}

// noteProgress folds a report into the convergence tracker and reports
// whether the run should stop (global best stable long enough). A NaN or
// infinite claim, which no selection holds, is ignored.
func (co *Coordinator) noteProgress(p Progress) bool {
	if math.IsNaN(p.Utility) || math.IsInf(p.Utility, 0) {
		return false
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if p.Feasible && (!co.haveBest || p.Utility > co.best.Utility) {
		co.best = Result{WorkerID: p.WorkerID, Utility: p.Utility, Iterations: p.Iterations, BestN: p.BestN}
		co.haveBest = true
		co.improves = 0
		co.cfg.Obs.SetBestUtility(p.Utility)
		co.cfg.Obs.SetBestThreadN(p.BestN)
		return false
	}
	co.improves++
	return co.haveBest && co.improves >= co.cfg.StableReports
}

// pickBest ranks the results that pass verify against inst by the
// utility inst gives their selections, and returns the best as a
// solution on inst. Each result that fails counts as a task error, traced
// with its reason.
func (co *Coordinator) pickBest(inst *core.Instance, results []Result) (core.Solution, bool) {
	best := core.Solution{Utility: math.Inf(-1)}
	ok := false
	for _, r := range results {
		if r.Err != "" || r.Selected == nil {
			continue
		}
		sol, err := verify(inst, r)
		if err != nil {
			co.cfg.Obs.TaskFailed(r.WorkerID, fmt.Sprintf("%s: claim rejected: %v", taskRef(Task{TaskID: r.TaskID, Attempt: r.Attempt}), err))
			continue
		}
		if sol.Utility > best.Utility {
			best, ok = sol, true
		}
	}
	return best, ok
}

// verify checks a worker's result against inst, the session's final
// instance, and returns its selection as a solution on inst. The
// selection may be shorter than inst, since a worker that stopped before
// late joins leaves them unselected, but not longer; padded, it must meet
// capacity and Nmin, and its utility must equal the finite claim. An
// honest worker computes the same sum over the same shards, so its claim
// agrees bit for bit.
func verify(inst *core.Instance, r Result) (core.Solution, error) {
	if len(r.Selected) > inst.NumShards() {
		return core.Solution{}, fmt.Errorf("selection of %d shards, instance has %d", len(r.Selected), inst.NumShards())
	}
	sel := make([]bool, inst.NumShards())
	copy(sel, r.Selected)
	sol := core.NewSolution(inst, sel)
	if !inst.Feasible(sel) {
		return core.Solution{}, fmt.Errorf("infeasible selection: %d shards of Nmin %d, load %d of capacity %d",
			sol.Count, inst.Nmin, sol.Load, inst.Capacity)
	}
	// A NaN claim fails the comparison too.
	if math.IsInf(r.Utility, 0) || r.Utility != sol.Utility {
		return core.Solution{}, fmt.Errorf("claimed utility %v, selection holds %v", r.Utility, sol.Utility)
	}
	sol.Iterations = r.Iterations
	return sol, nil
}
