package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
)

// mustInjector builds an injector from rules, failing the test on error.
func mustInjector(t *testing.T, seed int64, rules ...faultinject.Rule) *faultinject.Injector {
	t.Helper()
	in, err := faultinject.New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// cleanRunUtility runs the same session fault-free and returns its best
// utility, the baseline for the Theorem-2-style tolerance checks.
func cleanRunUtility(t *testing.T, cfg CoordinatorConfig, nWorkers int) float64 {
	t.Helper()
	sol, _ := runSession(t, cfg, nWorkers, 0)
	return sol.Utility
}

// TestDistFaultWorkerKilledMidRun is the headline chaos scenario: three
// workers, one of which is armed to crash (connection drop) the moment
// its task starts. The coordinator must detect the death, reassign the
// orphaned task to a survivor (attempt > 1, visible in the obs
// counters), and still return a feasible solution within the
// Theorem-2-style tolerance of the fault-free run.
func TestDistFaultWorkerKilledMidRun(t *testing.T) {
	in := distInstance(21, 20)
	cfg := CoordinatorConfig{
		Instance:      in,
		RunTimeout:    10 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1200,
		StableReports: 1 << 30, // let every task run to completion
		Seed:          21,
	}
	clean := cleanRunUtility(t, cfg, 3)

	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")
	wObs := obs.NewDistObserver(reg, "worker")

	cfg.Workers = 3
	cfg.Obs = coObs
	co, err := NewCoordinator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := Worker{ID: fmt.Sprintf("w%d", g), Obs: wObs}
			if g == 0 {
				// Deterministic kill: the first task this worker starts
				// drops the connection, exactly once.
				w.FI = mustInjector(t, 21, faultinject.Rule{
					Point: FPWorkerTask, Times: 1, Action: faultinject.ActDrop,
				})
			}
			_, err := w.Run(co.Addr())
			if g == 0 && err == nil {
				t.Error("killed worker reported no error")
			}
			if g != 0 && err != nil {
				t.Errorf("survivor %d: %v", g, err)
			}
		}()
	}
	sol, inst, err := co.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution after mid-run worker death")
	}
	if sol.Utility < 0.9*clean {
		t.Fatalf("chaos utility %.1f below tolerance of fault-free %.1f", sol.Utility, clean)
	}
	if got := coObs.TasksReassigned.Value(); got < 1 {
		t.Fatalf("tasks reassigned = %d, want >= 1", got)
	}
	if got := wObs.FaultsInjected.Value(); got < 1 {
		t.Fatalf("faults injected = %d, want >= 1", got)
	}
	if coObs.TasksAbandoned.Value() != 0 {
		t.Fatalf("tasks abandoned = %d, want 0", coObs.TasksAbandoned.Value())
	}
	// The reassignment must be visible in the trace with attempt > 1.
	events, _ := reg.Tracer().Snapshot()
	seen := false
	for _, ev := range events {
		if ev.Type == obs.EvDistRetry && ev.Detail == "reassign" && ev.Value > 1 {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("no reassign trace event with attempt > 1")
	}
}

// TestDistFaultWorkerReconnects arms the single worker to drop its
// connection mid-task; with MaxAttempts > 1 it must reconnect with
// backoff, be admitted by the coordinator's late-accept loop, pick the
// orphaned task back up, and finish the run.
func TestDistFaultWorkerReconnects(t *testing.T) {
	in := distInstance(22, 16)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")
	wObs := obs.NewDistObserver(reg, "worker")

	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       1,
		RunTimeout:    10 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1200,
		StableReports: 1 << 30,
		Seed:          22,
		Obs:           coObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	done := make(chan error, 1)
	go func() {
		w := Worker{
			ID:          "w0",
			MaxAttempts: 3,
			BackoffBase: 20 * time.Millisecond,
			BackoffCap:  200 * time.Millisecond,
			Obs:         wObs,
			// Hit 1 is the hello; hit 2 (the first progress report)
			// drops the connection, once.
			FI: mustInjector(t, 22, faultinject.Rule{
				Point: FPWorkerSend, After: 1, Times: 1, Action: faultinject.ActDrop,
			}),
		}
		_, err := w.Run(co.Addr())
		done <- err
	}()
	sol, inst, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("worker never recovered: %v", werr)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution after reconnect")
	}
	if got := wObs.Reconnects.Value(); got < 1 {
		t.Fatalf("reconnects = %d, want >= 1", got)
	}
	if got := coObs.TasksReassigned.Value(); got < 1 {
		t.Fatalf("tasks reassigned = %d, want >= 1", got)
	}
}

// TestDistFaultAssignFailureRedispatched arms the coordinator's assign
// fault point: the first dispatch fails, orphaning the task before any
// worker ran it. The worker (whose connection the coordinator tears
// down) reconnects and the task lands on the fresh connection.
func TestDistFaultAssignFailureRedispatched(t *testing.T) {
	in := distInstance(23, 16)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")

	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       1,
		RunTimeout:    10 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1000,
		StableReports: 1 << 30,
		Seed:          23,
		Obs:           coObs,
		FI: mustInjector(t, 23, faultinject.Rule{
			Point: FPCoordAssign, Times: 1, Action: faultinject.ActError,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	done := make(chan error, 1)
	go func() {
		w := Worker{
			ID:          "w0",
			MaxAttempts: 3,
			BackoffBase: 20 * time.Millisecond,
			BackoffCap:  200 * time.Millisecond,
		}
		_, err := w.Run(co.Addr())
		done <- err
	}()
	sol, inst, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution after assign failure")
	}
	if got := coObs.FaultsInjected.Value(); got < 1 {
		t.Fatal("assign fault never fired")
	}
	if got := coObs.TasksReassigned.Value(); got < 1 {
		t.Fatalf("tasks reassigned = %d, want >= 1", got)
	}
}

// TestDistFaultAllWorkersLostFallsBackLocal kills the only worker with
// no reconnect budget; once every attempt is exhausted the coordinator
// must degrade to the in-process solve instead of failing the epoch.
func TestDistFaultAllWorkersLostFallsBackLocal(t *testing.T) {
	in := distInstance(24, 16)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")

	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:        in,
		Workers:         1,
		RunTimeout:      10 * time.Second,
		ReportEvery:     50,
		MaxIterations:   800,
		StableReports:   1 << 30,
		MaxTaskAttempts: 2,
		Seed:            24,
		Obs:             coObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	done := make(chan error, 1)
	go func() {
		// Every task start drops the connection; with MaxAttempts 2 the
		// worker reconnects once, crashes again, and gives up.
		w := Worker{
			ID:          "w0",
			MaxAttempts: 2,
			BackoffBase: 20 * time.Millisecond,
			BackoffCap:  100 * time.Millisecond,
			FI: mustInjector(t, 24, faultinject.Rule{
				Point: FPWorkerTask, Action: faultinject.ActDrop,
			}),
		}
		_, err := w.Run(co.Addr())
		done <- err
	}()
	sol, inst, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr == nil {
		t.Fatal("crashing worker reported no error")
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("local fallback produced an infeasible solution")
	}
	if got := coObs.LocalFallbacks.Value(); got != 1 {
		t.Fatalf("local fallbacks = %d, want 1", got)
	}
	if got := coObs.TasksAbandoned.Value(); got < 1 {
		t.Fatalf("tasks abandoned = %d, want >= 1", got)
	}
}

// TestDistFaultTheorem2LeaveAndKill overlays the paper's dynamic-failure
// scenario on the chaos harness: a shard leaves mid-run (the Theorem 2
// perturbation) while a worker dies. The surviving session must trim the
// departed shard and land within tolerance of a fault-free solve of the
// trimmed instance, and the stated perturbation bound must hold.
func TestDistFaultTheorem2LeaveAndKill(t *testing.T) {
	in := distInstance(25, 18)
	gone := 3

	// Fault-free baseline on the post-failure (trimmed) instance.
	trimmed := in.Clone()
	if err := trimmed.Validate(); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(trimmed, core.SEConfig{Seed: 25, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyEvent(core.Event{Kind: core.EventLeave, Index: gone}); err != nil {
		t.Fatal(err)
	}
	eng.StepN(4000)
	baseSol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       2,
		RunTimeout:    10 * time.Second,
		ReportEvery:   25,
		MaxIterations: 60000,
		StableReports: 1 << 30,
		Seed:          25,
		Obs:           coObs,
		Events: []TimedEvent{
			{After: 40 * time.Millisecond, Event: core.Event{Kind: core.EventLeave, Index: gone}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := Worker{ID: fmt.Sprintf("w%d", g), Throttle: time.Millisecond}
			if g == 0 {
				// Dies on its 5th send (well into the run), no reconnect.
				w.FI = mustInjector(t, 25, faultinject.Rule{
					Point: FPWorkerSend, After: 4, Times: 1, Action: faultinject.ActDrop,
				})
			}
			_, err := w.Run(co.Addr())
			if g != 0 && err != nil {
				t.Errorf("survivor: %v", err)
			}
		}()
	}
	sol, inst, err := co.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Selected[gone] {
		t.Fatal("departed shard still selected after failure")
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible post-failure solution")
	}
	if sol.Utility < 0.9*baseSol.Utility {
		t.Fatalf("post-failure utility %.1f below tolerance of trimmed baseline %.1f",
			sol.Utility, baseSol.Utility)
	}
	// Theorem 2: the stated perturbation after a committee failure is
	// bounded — total variation distance at most 1/2.
	pb := core.PerturbationBound(sol.Utility)
	if pb.TVDistance > 0.5 {
		t.Fatalf("perturbation TV distance %v exceeds Theorem 2 bound", pb.TVDistance)
	}
}

// TestCodecRecvDeadlineIsNetTimeout is the regression for the
// worker-death detector's foundation: an expired read deadline must
// surface as a net.Error whose Timeout() reports true — not a bare EOF —
// so the coordinator can tell a silent peer from a closed connection.
func TestCodecRecvDeadlineIsNetTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // held open and silent
		}
	}()
	c, err := dialRaw(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	defer func() {
		if conn := <-accepted; conn != nil {
			conn.Close()
		}
	}()

	_, err = c.recv(100 * time.Millisecond)
	if err == nil {
		t.Fatal("recv on a silent connection returned without error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline expiry surfaced as %T %v, want net.Error with Timeout()", err, err)
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("deadline expiry must not be an EOF")
	}
}

// TestCoordinatorHeartbeatDetectsSilentWorker: a worker that says hello
// and then goes silent must be declared dead at the heartbeat deadline
// (mapped to worker-death, not a run abort), after which the coordinator
// degrades to the local solve.
func TestCoordinatorHeartbeatDetectsSilentWorker(t *testing.T) {
	in := distInstance(26, 12)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")

	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:         in,
		Workers:          1,
		RunTimeout:       8 * time.Second,
		HeartbeatTimeout: 300 * time.Millisecond,
		MaxTaskAttempts:  1,
		MaxIterations:    800,
		Seed:             26,
		Obs:              coObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	stop := make(chan struct{})
	go func() {
		c, err := dialRaw(co.Addr())
		if err != nil {
			t.Errorf("silent worker dial: %v", err)
			return
		}
		defer c.conn.Close()
		_ = c.send(MsgHello, Hello{WorkerID: "mute"})
		<-stop // never report progress
	}()
	defer close(stop)

	start := time.Now()
	sol, inst, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("silent worker stalled the run for %v", elapsed)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible fallback solution")
	}
	if got := coObs.TasksAbandoned.Value(); got != 1 {
		t.Fatalf("tasks abandoned = %d, want 1", got)
	}
	if got := coObs.LocalFallbacks.Value(); got != 1 {
		t.Fatalf("local fallbacks = %d, want 1", got)
	}
}

// TestCoordinatorPartialConnect: with fewer workers than configured at
// the accept deadline, the session proceeds with the connected subset.
func TestCoordinatorPartialConnect(t *testing.T) {
	in := distInstance(27, 16)
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       3, // only one will show up
		AcceptTimeout: 400 * time.Millisecond,
		RunTimeout:    8 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1000,
		StableReports: 1 << 30,
		Seed:          27,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	done := make(chan error, 1)
	go func() {
		_, err := (Worker{ID: "solo"}).Run(co.Addr())
		done <- err
	}()
	sol, inst, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("solo worker: %v", werr)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution from partial house")
	}
	if sol.Utility <= 0 {
		t.Fatalf("utility %v", sol.Utility)
	}
}

// TestCoordinatorZeroWorkersLocalFallback: nobody connects at all; the
// coordinator must return the in-process solution instead of an error.
func TestCoordinatorZeroWorkersLocalFallback(t *testing.T) {
	in := distInstance(28, 12)
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       2,
		AcceptTimeout: 200 * time.Millisecond,
		MaxIterations: 1000,
		Seed:          28,
		Obs:           coObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sol, inst, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible fallback solution")
	}
	if got := coObs.LocalFallbacks.Value(); got != 1 {
		t.Fatalf("local fallbacks = %d, want 1", got)
	}
}
