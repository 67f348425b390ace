package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mvcom/internal/core"
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
