package tracemerge

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/dist"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
)

// mergeInstance mirrors the dist test fixture: a binding-capacity
// scheduling instance the session has to actually solve.
func mergeInstance(seed int64, n int) core.Instance {
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

// exportDump round-trips one process's registry through the streaming
// JSON export and the streaming reader — the same path the CLI takes.
func exportDump(t *testing.T, name string, reg *obs.Registry) *Dump {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Tracer().StreamJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// collectSpans flattens the forest depth-first.
func collectSpans(list []*obs.TimelineSpan, out *[]*obs.TimelineSpan) {
	for _, s := range list {
		*out = append(*out, s)
		collectSpans(s.Children, out)
	}
}

// TestMergeFaultInjectedSessionCompleteTimeline is the ISSUE's
// acceptance scenario: a coordinator and two workers run as separate
// "processes" (each with its own registry), one worker is killed the
// moment its first task starts, and the task is redispatched to the
// survivor. Merging the three dumps must reconstruct the complete causal
// timeline — zero orphan spans, every solve span parented under the
// dispatch attempt that caused it, and the retry attempt linked under
// the attempt it replaced.
func TestMergeFaultInjectedSessionCompleteTimeline(t *testing.T) {
	in := mergeInstance(31, 20)

	regCo := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	regW0 := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	regW1 := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	coObs := obs.NewDistObserver(regCo, "coordinator")

	co, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Instance:      in,
		Workers:       2,
		RunTimeout:    10 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1200,
		StableReports: 1 << 30,
		Seed:          31,
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
			reg := regW1
			if g == 0 {
				reg = regW0
			}
			w := dist.Worker{
				ID:  fmt.Sprintf("w%d", g),
				Obs: obs.NewDistObserver(reg, "worker"),
			}
			if g == 0 {
				// Deterministic kill: the first task this worker starts
				// drops the connection, exactly once, orphaning the task.
				fi, err := faultinject.New(31, faultinject.Rule{
					Point: dist.FPWorkerTask, Times: 1, Action: faultinject.ActDrop,
				})
				if err != nil {
					t.Error(err)
					return
				}
				w.FI = fi
			}
			_, err := w.Run(co.Addr())
			if g == 0 && err == nil {
				t.Error("killed worker reported no error")
			}
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
	if !inst.Feasible(sol.Selected) {
		t.Fatal("infeasible solution after mid-run worker death")
	}
	if got := coObs.TasksReassigned.Value(); got < 1 {
		t.Fatalf("tasks reassigned = %d, want >= 1 (fault never forced a retry)", got)
	}

	m := Merge([]*Dump{
		exportDump(t, "coordinator", regCo),
		exportDump(t, "w0", regW0),
		exportDump(t, "w1", regW1),
	})

	// The acceptance bar: the merged reconstruction is complete.
	if len(m.Timeline.Orphans) != 0 {
		var buf bytes.Buffer
		_ = m.WriteTree(&buf)
		t.Fatalf("merged timeline has %d orphan spans:\n%s", len(m.Timeline.Orphans), buf.String())
	}

	var epoch *obs.TimelineSpan
	for _, r := range m.Timeline.Roots {
		if r.Name == "epoch" {
			if epoch != nil {
				t.Fatal("more than one epoch root in a single session")
			}
			epoch = r
		}
	}
	if epoch == nil {
		t.Fatal("no epoch root span in merged timeline")
	}
	if epoch.Incomplete {
		t.Fatal("epoch root span never finished")
	}
	if epoch.Node != "coordinator" {
		t.Fatalf("epoch root node = %q, want coordinator", epoch.Node)
	}

	var all []*obs.TimelineSpan
	collectSpans([]*obs.TimelineSpan{epoch}, &all)
	byID := make(map[uint64]*obs.TimelineSpan, len(all))
	dispatches, solves := 0, 0
	retryLinked := false
	for _, s := range all {
		byID[s.SpanID] = s
	}
	for _, s := range all {
		switch s.Name {
		case "dispatch":
			dispatches++
			// Attempt > 1 must hang under the dispatch it replaced, not
			// float as a fresh root: the orphan queue carries the previous
			// attempt's span context through the redispatch.
			if strings.Contains(s.Actor, "#") && !strings.HasSuffix(s.Actor, "#1") {
				parent := byID[s.ParentID]
				if parent == nil || parent.Name != "dispatch" {
					t.Fatalf("retry %s not parented under its prior attempt (parent=%+v)", s.Actor, parent)
				}
				retryLinked = true
			}
		case "solve":
			solves++
			// Every worker solve hangs under a coordinator dispatch.
			parent := byID[s.ParentID]
			if parent == nil || parent.Name != "dispatch" {
				t.Fatalf("solve span (%s@%s) not parented under a dispatch", s.Actor, s.Node)
			}
			if parent.Node != "coordinator" {
				t.Fatalf("solve's dispatch parent came from node %q", parent.Node)
			}
			if s.Node != s.Actor {
				t.Fatalf("solve span node = %q, actor = %q: cross-process attribution lost", s.Node, s.Actor)
			}
		}
	}
	if dispatches < 3 {
		t.Fatalf("dispatch spans = %d, want >= 3 (2 tasks + 1 retry)", dispatches)
	}
	if solves < 3 {
		t.Fatalf("solve spans = %d, want >= 3 (killed + survivor + retried)", solves)
	}
	if !retryLinked {
		t.Fatal("no retry dispatch linked under its prior attempt")
	}
	// The killed worker's span must be closed with the crash outcome, not
	// dangling: span completeness survives the process "death".
	crashed := false
	for _, s := range all {
		if s.Name == "solve" && s.Node == "w0" && s.Outcome == "crash" {
			crashed = true
		}
		if s.Incomplete {
			t.Fatalf("incomplete span %s (%s@%s) in merged timeline", s.Name, s.Actor, s.Node)
		}
	}
	if !crashed {
		t.Fatal("killed worker's solve span missing the crash outcome")
	}

	// The JSON artifact (what CI uploads from the soak) round-trips.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"timeline"`)) {
		t.Fatal("merged JSON artifact missing timeline")
	}
}
