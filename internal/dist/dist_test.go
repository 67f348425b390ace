package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
)

func distInstance(seed int64, n int) core.Instance {
	rng := randx.New(seed)
	in := core.Instance{
		Sizes:     make([]int, n),
		Latencies: make([]float64, n),
		Alpha:     1.5,
		Nmin:      n / 4,
	}
	total := 0
	for i := 0; i < n; i++ {
		in.Sizes[i] = 500 + rng.Intn(2501)
		in.Latencies[i] = rng.Uniform(600, 1300)
		total += in.Sizes[i]
	}
	in.Capacity = total / 2
	return in
}

// runSession starts a coordinator and nWorkers workers over loopback and
// returns the coordinated solution.
func runSession(t *testing.T, cfg CoordinatorConfig, nWorkers int, throttle time.Duration) (core.Solution, core.Instance) {
	t.Helper()
	cfg.Workers = nWorkers
	co, err := NewCoordinator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	var wg sync.WaitGroup
	for g := 0; g < nWorkers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := Worker{ID: fmt.Sprintf("w%d", g), Throttle: throttle}
			if _, err := w.Run(co.Addr()); err != nil {
				t.Errorf("worker %d: %v", g, err)
			}
		}()
	}
	sol, inst, err := co.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return sol, inst
}

func TestDistributedSessionBasic(t *testing.T) {
	in := distInstance(1, 20)
	sol, inst := runSession(t, CoordinatorConfig{
		Instance:      in,
		RunTimeout:    5 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1500,
		StableReports: 10,
		Seed:          1,
	}, 1, 0)
	if !inst.Feasible(sol.Selected) {
		t.Fatalf("infeasible distributed solution: count=%d load=%d", sol.Count, sol.Load)
	}
	if sol.Utility <= 0 {
		t.Fatalf("utility %v", sol.Utility)
	}
}

func TestDistributedSessionMultipleWorkers(t *testing.T) {
	in := distInstance(2, 24)
	sol, inst := runSession(t, CoordinatorConfig{
		Instance:      in,
		RunTimeout:    8 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1200,
		StableReports: 15,
		Seed:          2,
	}, 3, 0)
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution with 3 workers")
	}
}

func TestDistributedMatchesLocalQuality(t *testing.T) {
	in := distInstance(3, 20)
	local := in.Clone()
	if err := local.Validate(); err != nil {
		t.Fatal(err)
	}
	localSol, _, err := core.NewSE(core.SEConfig{Seed: 3, MaxIters: 1500}).Solve(local)
	if err != nil {
		t.Fatal(err)
	}
	distSol, _ := runSession(t, CoordinatorConfig{
		Instance:      in,
		RunTimeout:    8 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1500,
		StableReports: 15,
		Seed:          3,
	}, 2, 0)
	// The distributed session should land in the same quality band: at
	// least 90% of the single-machine utility.
	if distSol.Utility < 0.9*localSol.Utility {
		t.Fatalf("distributed %.1f far below local %.1f", distSol.Utility, localSol.Utility)
	}
}

func TestDistributedEvents(t *testing.T) {
	in := distInstance(4, 16)
	joinSize := 2500
	events := []TimedEvent{
		{After: 50 * time.Millisecond, Event: core.Event{
			Kind: core.EventJoin, Index: -1, Size: joinSize, Latency: 650,
		}},
		{After: 120 * time.Millisecond, Event: core.Event{
			Kind: core.EventLeave, Index: 2,
		}},
	}
	sol, inst := runSession(t, CoordinatorConfig{
		Instance:      in,
		RunTimeout:    8 * time.Second,
		ReportEvery:   25,
		MaxIterations: 60000,
		StableReports: 1 << 30, // force the events to land before stop
		Seed:          4,
		Events:        events,
	}, 1, time.Millisecond)
	if inst.NumShards() != 17 {
		t.Fatalf("instance grew to %d shards, want 17", inst.NumShards())
	}
	if len(sol.Selected) != 17 {
		t.Fatalf("selection length %d", len(sol.Selected))
	}
	if sol.Selected[2] {
		t.Fatal("departed shard still selected")
	}
}

// TestDistributedRejoin: the largest shard leaves and rejoins at half its
// size with a new latency, after which every shard fits the block. The
// worker's engine refreshes the shard's features and offers the full
// selection; the coordinator mirrors the rejoin in its own instance, so
// it verifies that claim and returns the worker's schedule.
func TestDistributedRejoin(t *testing.T) {
	in := distInstance(5, 12)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	k, total := 0, 0
	for i, s := range in.Sizes {
		total += s
		if s > in.Sizes[k] {
			k = i
		}
	}
	size, latency := in.Sizes[k]/2, in.DDL
	if in.Latencies[k] == latency {
		latency--
	}
	in.Capacity = total - in.Sizes[k] + size
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       1,
		RunTimeout:    8 * time.Second,
		ReportEvery:   25,
		MaxIterations: 60000,
		StableReports: 1 << 30, // force the events to land before stop
		Seed:          5,
		Events: []TimedEvent{
			{After: 50 * time.Millisecond, Event: core.Event{Kind: core.EventLeave, Index: k}},
			{After: 120 * time.Millisecond, Event: core.Event{Kind: core.EventJoin, Index: k, Size: size, Latency: latency}},
		},
		Obs: obs.NewDistObserver(reg, "coordinator"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	worker := make(chan Result, 1)
	go func() {
		r, err := (Worker{ID: "w0", Throttle: time.Millisecond}).Run(co.Addr())
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		worker <- r
	}()
	sol, inst, err := co.Run()
	want := <-worker
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Selected) <= k || !want.Selected[k] {
		t.Fatalf("the worker's schedule leaves the rejoined shard %d out: %v", k, want.Selected)
	}
	if inst.Sizes[k] != size || inst.Latencies[k] != latency {
		t.Fatalf("coordinator's shard %d: size %d, latency %v; the rejoin set %d, %v",
			k, inst.Sizes[k], inst.Latencies[k], size, latency)
	}
	if _, local := co.TaskResults(); local || !sol.Selected[k] || sol.Utility != want.Utility {
		t.Fatalf("schedule utility %v, shard %d selected %v (local fallback %v); the worker returned %v",
			sol.Utility, k, sol.Selected[k], local, want.Utility)
	}
	events, _ := reg.Tracer().Snapshot()
	for _, ev := range events {
		if ev.Type == obs.EvDistTaskError {
			t.Fatalf("task error traced for %s: %s", ev.Actor, ev.Detail)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{Workers: 1}); err == nil {
		t.Fatal("empty instance accepted")
	}
}

func TestWorkerNeedsID(t *testing.T) {
	if _, err := (Worker{}).Run("127.0.0.1:1"); err == nil {
		t.Fatal("empty worker ID accepted")
	}
}

func TestWorkerDialFailure(t *testing.T) {
	w := Worker{ID: "w"}
	if _, err := w.Run("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestWorkerDisconnectTolerated(t *testing.T) {
	// Two workers; one dies immediately after hello. The session must
	// still finish with the surviving worker's answer.
	in := distInstance(6, 16)
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       2,
		RunTimeout:    6 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1200,
		StableReports: 10,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the deserter: says hello, then hangs up
		defer wg.Done()
		c, err := dialRaw(co.Addr())
		if err != nil {
			t.Errorf("deserter dial: %v", err)
			return
		}
		_ = c.send(MsgHello, Hello{WorkerID: "deserter"})
		time.Sleep(100 * time.Millisecond)
		_ = c.conn.Close()
	}()
	go func() {
		defer wg.Done()
		if _, err := (Worker{ID: "survivor"}).Run(co.Addr()); err != nil {
			t.Errorf("survivor: %v", err)
		}
	}()
	sol, inst, err := co.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution after worker desertion")
	}
}

func TestEventMsgRoundTrip(t *testing.T) {
	for _, ev := range []core.Event{
		{Kind: core.EventJoin, Index: -1, Size: 10, Latency: 5},
		{Kind: core.EventLeave, Index: 3},
	} {
		got, err := FromEvent(ev).ToEvent()
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != ev.Kind || got.Index != ev.Index || got.Size != ev.Size || got.Latency != ev.Latency {
			t.Fatalf("round trip %+v -> %+v", ev, got)
		}
	}
	if _, err := (EventMsg{Kind: "explode"}).ToEvent(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestTaskInstanceCopies(t *testing.T) {
	task := Task{Sizes: []int{1, 2}, Latencies: []float64{3, 4}, Alpha: 1, Capacity: 10}
	in := task.Instance()
	in.Sizes[0] = 99
	if task.Sizes[0] == 99 {
		t.Fatal("task and instance share backing arrays")
	}
}

func dialRaw(addr string) (*codec, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return newCodec(conn), nil
}

func TestWorkerRejectsNonTaskFirstMessage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := newCodec(conn)
		_, _ = c.recv(2 * time.Second)        // hello
		_ = c.send(MsgBest, Best{Utility: 1}) // wrong first message
		time.Sleep(200 * time.Millisecond)
		_ = conn.Close()
	}()
	if _, err := (Worker{ID: "w"}).Run(ln.Addr().String()); !errors.Is(err, ErrBadTask) {
		t.Fatalf("err = %v, want ErrBadTask", err)
	}
}

func TestWorkerReportsInvalidInstance(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan Result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := newCodec(conn)
		_, _ = c.recv(2 * time.Second) // hello
		_ = c.send(MsgTask, Task{})    // empty instance: invalid
		env, err := c.recv(2 * time.Second)
		if err == nil && env.Type == MsgResult {
			if r, err := decode[Result](env); err == nil {
				got <- r
			}
		}
		close(got)
	}()
	if _, err := (Worker{ID: "w"}).Run(ln.Addr().String()); err == nil {
		t.Fatal("invalid task accepted")
	}
	if r, ok := <-got; ok && r.Err == "" {
		t.Fatal("worker result should carry the validation error")
	}
}

func TestCoordinatorStableReportsEarlyStop(t *testing.T) {
	// Tiny StableReports: the coordinator should stop the run long before
	// workers exhaust their (huge) iteration budget.
	in := distInstance(9, 16)
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       1,
		RunTimeout:    20 * time.Second,
		ReportEvery:   20,
		MaxIterations: 1 << 20,
		StableReports: 3,
		Seed:          9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	done := make(chan Result, 1)
	go func() {
		r, _ := (Worker{ID: "w", Throttle: time.Millisecond}).Run(co.Addr())
		done <- r
	}()
	start := time.Now()
	sol, _, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.Iterations >= 1<<20 {
		t.Fatal("worker ran to its full budget despite stop signal")
	}
	if time.Since(start) > 15*time.Second {
		t.Fatal("early stop did not trigger")
	}
	if sol.Count == 0 {
		t.Fatal("empty solution")
	}
}

func TestIsDialError(t *testing.T) {
	// A port nothing listens on: grab one, close it, dial it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	w := Worker{ID: "probe"}
	_, err = w.Run(addr)
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if !IsDialError(err) {
		t.Fatalf("IsDialError(%v) = false, want true", err)
	}
	if IsDialError(nil) {
		t.Fatal("IsDialError(nil) = true")
	}
	if IsDialError(errors.New("dist: connection closed before task")) {
		t.Fatal("non-dial error classified as dial failure")
	}
}

// TestCoordinatorRejectsInflatedClaim: a peer that reports 1e300 twelve
// times and then claims 1e300 for an all-true selection, twice the
// capacity, is never handed out. The coordinator checks each result
// against its instance, counts and traces the rejected one as a task
// error, and returns the honest worker's schedule.
func TestCoordinatorRejectsInflatedClaim(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")
	in := distInstance(1, 20)
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       2,
		RunTimeout:    10 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1500,
		StableReports: 10,
		Seed:          1,
		Obs:           coObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// The honest worker is throttled so that it is still solving when
	// the liar's reports stop the session.
	honest := make(chan Result, 1)
	go func() {
		r, err := (Worker{ID: "honest", Throttle: 2 * time.Millisecond}).Run(co.Addr())
		if err != nil {
			t.Errorf("honest worker: %v", err)
		}
		honest <- r
	}()
	liar := make(chan struct{})
	go func() {
		defer close(liar)
		c, err := dialRaw(co.Addr())
		if err != nil {
			t.Errorf("liar: %v", err)
			return
		}
		defer c.conn.Close()
		if err := c.send(MsgHello, Hello{WorkerID: "liar"}); err != nil {
			t.Errorf("liar: %v", err)
			return
		}
		env, err := c.recv(10 * time.Second)
		if err != nil || env.Type != MsgTask {
			t.Errorf("liar: first message %q, %v", env.Type, err)
			return
		}
		task, err := decode[Task](env)
		if err != nil {
			t.Errorf("liar: %v", err)
			return
		}
		// Lie once the honest worker has reported a feasible best, so
		// it has a schedule to return when the lie stops the session.
		for deadline := time.Now().Add(10 * time.Second); coObs.BestUtility.Value() <= 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("liar: the honest worker never reported a feasible best")
				return
			}
		}
		for i := 1; i <= 12; i++ {
			_ = c.send(MsgProgress, Progress{WorkerID: "liar", Iterations: 50 * i, Utility: 1e300, Feasible: true})
		}
		all := make([]bool, len(task.Sizes))
		for i := range all {
			all[i] = true
		}
		_ = c.send(MsgResult, Result{WorkerID: "liar", TaskID: task.TaskID, Attempt: task.Attempt, Utility: 1e300, Selected: all})
		for {
			if _, err := c.recv(10 * time.Second); err != nil {
				return
			}
		}
	}()

	sol, inst, err := co.Run()
	want := <-honest
	<-liar
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol.Selected) {
		t.Fatalf("handed out an infeasible schedule: %d shards, load %d of capacity %d", sol.Count, sol.Load, inst.Capacity)
	}
	if _, local := co.TaskResults(); local || sol.Utility != want.Utility {
		t.Fatalf("schedule utility %v (local fallback %v), want the honest worker's %v", sol.Utility, local, want.Utility)
	}
	events, _ := reg.Tracer().Snapshot()
	rejected := 0
	for _, ev := range events {
		if ev.Type == obs.EvDistTaskError && ev.Actor == "liar" && strings.Contains(ev.Detail, "claim rejected") {
			rejected++
		}
	}
	if rejected != 1 || coObs.TaskErrors.Value() != 1 {
		t.Fatalf("%d rejection events for the liar's result and %d task errors, want 1 and 1", rejected, coObs.TaskErrors.Value())
	}
}

// TestVerifyResult: a result passes only with a selection no longer than
// the instance that meets capacity and Nmin once padded, and a claim
// equal to its utility.
func TestVerifyResult(t *testing.T) {
	in := distInstance(1, 20)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	sol, _, err := core.NewSE(core.SEConfig{Seed: 1, MaxIters: 500}).Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	honest := Result{Selected: sol.Selected, Utility: sol.Utility}
	if got, err := verify(&in, honest); err != nil || got.Utility != sol.Utility {
		t.Fatalf("honest result: %v, %v", got.Utility, err)
	}
	grown := in.Clone()
	grown.Sizes = append(grown.Sizes, 1)
	grown.Latencies = append(grown.Latencies, 1)
	if _, err := verify(&grown, honest); err != nil {
		t.Fatalf("a shorter honest selection after a join: %v", err)
	}
	bad := map[string]Result{
		"too long":   {Selected: append(append([]bool(nil), sol.Selected...), false), Utility: sol.Utility},
		"NaN claim":  {Selected: sol.Selected, Utility: math.NaN()},
		"Inf claim":  {Selected: sol.Selected, Utility: math.Inf(1)},
		"inflated":   {Selected: sol.Selected, Utility: sol.Utility + 1},
		"under Nmin": {Selected: []bool{true}, Utility: in.Utility([]bool{true})},
		"over capacity": func() Result {
			all := make([]bool, in.NumShards())
			for i := range all {
				all[i] = true
			}
			return Result{Selected: all, Utility: in.Utility(all)}
		}(),
	}
	for name, r := range bad {
		if _, err := verify(&in, r); err == nil {
			t.Errorf("%s: verified", name)
		}
	}
}

// TestNoteProgressIgnoresNonFinite: a NaN or infinite progress claim
// neither becomes the session best nor counts toward the stop rule.
func TestNoteProgressIgnoresNonFinite(t *testing.T) {
	co := &Coordinator{cfg: CoordinatorConfig{StableReports: 1}}
	for _, u := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if co.noteProgress(Progress{Utility: u, Feasible: true}) || co.haveBest || co.improves != 0 {
			t.Fatalf("claim %v was taken: best %+v, have %v, stable %d", u, co.best, co.haveBest, co.improves)
		}
	}
	if co.noteProgress(Progress{Utility: 5, Feasible: true}) || co.best.Utility != 5 {
		t.Fatalf("finite claim not taken: best %+v", co.best)
	}
}
