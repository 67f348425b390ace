package dist

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mvcom/internal/obs"
)

// TestTaskErrorCarriesTaskRef checks that a worker-side failure is
// wrapped with the coordinator-assigned task ID and attempt count, both
// in the returned error and in the Result it reports back.
func TestTaskErrorCarriesTaskRef(t *testing.T) {
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
		// Empty instance: the worker's engine construction must fail.
		_ = c.send(MsgTask, Task{TaskID: "task-7", Attempt: 2})
		env, err := c.recv(2 * time.Second)
		if err == nil && env.Type == MsgResult {
			if r, err := decode[Result](env); err == nil {
				got <- r
			}
		}
		close(got)
	}()

	_, err = (Worker{ID: "w9"}).Run(ln.Addr().String())
	if err == nil {
		t.Fatal("invalid task accepted")
	}
	for _, want := range []string{"task task-7", "attempt 2", "worker w9"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	r, ok := <-got
	if !ok {
		t.Fatal("no result reported")
	}
	if r.TaskID != "task-7" || r.Attempt != 2 {
		t.Fatalf("result correlation lost: taskID=%q attempt=%d", r.TaskID, r.Attempt)
	}
	if !strings.Contains(r.Err, "task task-7 attempt 2") {
		t.Fatalf("result error %q missing task ref", r.Err)
	}
}

func TestTaskRefDefaults(t *testing.T) {
	// Pre-ID coordinators send neither field; the ref must not render a
	// zero attempt or an empty ID.
	if got := taskRef(Task{}); got != "task ? attempt 1" {
		t.Fatalf("taskRef zero task = %q", got)
	}
	if got := taskRef(Task{TaskID: "task-3", Attempt: 4}); got != "task task-3 attempt 4" {
		t.Fatalf("taskRef = %q", got)
	}
}

// TestSessionPopulatesObservers runs a full loopback session with
// observers attached on both roles and checks the protocol telemetry:
// per-type message counters, task latency, the best-utility gauge, and
// the connected-workers gauge.
func TestSessionPopulatesObservers(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(reg, "coordinator")
	wObs := obs.NewDistObserver(reg, "worker")

	in := distInstance(11, 16)
	co, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		Instance:      in,
		Workers:       2,
		RunTimeout:    6 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1200,
		StableReports: 10,
		Seed:          11,
		Obs:           coObs,
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
			w := Worker{ID: fmt.Sprintf("w%d", g), Obs: wObs, SEObs: obs.NewSEObserver(reg)}
			if _, err := w.Run(co.Addr()); err != nil {
				t.Errorf("worker %d: %v", g, err)
			}
		}()
	}
	sol, _, err := co.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Count == 0 {
		t.Fatal("empty solution")
	}

	if got := coObs.WorkersConnected.Value(); got != 2 {
		t.Fatalf("workers connected gauge = %v, want 2", got)
	}
	if coObs.TaskLatency.Count() != 2 {
		t.Fatalf("task latency observations = %d, want 2", coObs.TaskLatency.Count())
	}
	if coObs.TaskErrors.Value() != 0 {
		t.Fatalf("task errors = %d, want 0", coObs.TaskErrors.Value())
	}
	if coObs.BestUtility.Value() <= 0 {
		t.Fatalf("best utility gauge = %v", coObs.BestUtility.Value())
	}
	// The workers thread their winning cardinality through progress
	// reports; the coordinator exports the best one.
	if n := coObs.BestThreadN.Value(); n < 1 || n > float64(in.NumShards()) {
		t.Fatalf("best thread-n gauge = %v, want within 1..%d", n, in.NumShards())
	}

	// Both directions of the wire must be counted for both roles: the
	// coordinator sent 2 tasks, the workers each sent a hello and a
	// result.
	for name, want := range map[string]int64{
		`mvcom_dist_messages_total{role="coordinator",dir="tx",type="task"}`:  2,
		`mvcom_dist_messages_total{role="coordinator",dir="rx",type="hello"}`: 2,
		`mvcom_dist_messages_total{role="worker",dir="tx",type="hello"}`:      2,
		`mvcom_dist_messages_total{role="worker",dir="rx",type="task"}`:       2,
		`mvcom_dist_messages_total{role="worker",dir="tx",type="result"}`:     2,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// The workers' SE kernels flushed their counters into the shared
	// registry.
	if reg.Counter("mvcom_se_rounds_total", "").Value() == 0 {
		t.Fatal("SE rounds counter never flushed during the session")
	}
}
