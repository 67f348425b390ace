// Command mvcom-dist runs the SE algorithm's online distributed execution
// mode over TCP: a coordinator owns the scheduling instance and any number
// of workers — on this machine or others — explore the solution space and
// exchange best-utility reports, exactly the multi-machine deployment
// Section IV-D of the paper describes.
//
// Usage:
//
//	mvcom-dist -mode coordinator -listen :9700 -workers 3 -epochs 5
//	mvcom-dist -mode worker -connect host:9700 -id w1 -loop
//	mvcom-dist -mode demo -workers 4      # everything in one process
//
// -epochs streams several scheduling epochs through one deployment (a
// fresh coordinator session per epoch on the same address; -loop makes a
// worker re-dial between epochs and exit cleanly once the coordinator is
// gone). -result-json and -trace-out persist the run summary and the
// process's span dump for the multi-process cluster harness
// (cmd/mvcom-cluster) to compare and merge.
//
// Chaos runs arm the named fault points of both roles with -fault-spec
// (see internal/faultinject), e.g.:
//
//	mvcom-dist -mode demo -workers 3 -retry-max 3 \
//	    -fault-spec 'worker.task:after=1,times=1,action=drop'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/dist"
	"mvcom/internal/experiments"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-dist:", err)
		os.Exit(1)
	}
}

// epochResult is one epoch's outcome in the -result-json summary.
type epochResult struct {
	Epoch      int     `json:"epoch"`
	Utility    float64 `json:"utility"`
	Count      int     `json:"count"`
	Load       int     `json:"load"`
	Iterations int     `json:"iterations"`
	Selected   []int   `json:"selected"`
}

// runResult is the -result-json document. The counters make the chaos
// gates checkable from outside the process: a clean run must show zero
// abandoned tasks and zero local fallbacks, and a run that survived a
// worker kill shows the reassignments that absorbed it. Decisions is
// present when -decision-log was set: the end-of-run replay verification
// over the journal.
type runResult struct {
	Epochs          []epochResult            `json:"epochs"`
	BestUtility     float64                  `json:"best_utility"`
	TasksReassigned int64                    `json:"tasks_reassigned"`
	TasksAbandoned  int64                    `json:"tasks_abandoned"`
	LocalFallbacks  int64                    `json:"local_fallbacks"`
	Decisions       *decisionlog.VerifyStats `json:"decisions,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-dist", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "demo", "coordinator | worker | demo")
		listen   = fs.String("listen", "127.0.0.1:9700", "coordinator listen address")
		connect  = fs.String("connect", "127.0.0.1:9700", "coordinator address (worker mode)")
		id       = fs.String("id", "worker-1", "worker id (worker mode)")
		workers  = fs.Int("workers", 2, "number of workers to wait for / spawn")
		gamma    = fs.Int("gamma", 1, "explorers Γ each worker runs in-process")
		sework   = fs.Int("se-workers", 0, "goroutines per worker's SE kernel (0 = GOMAXPROCS)")
		adaptive = fs.Bool("adaptive", false, "annealed β/Γ schedule in every worker's SE kernel")
		shards   = fs.Int("shards", 50, "number of member committees |I|")
		capacity = fs.Int("capacity", 40000, "final-block TX capacity Ĉ")
		alpha    = fs.Float64("alpha", 1.5, "throughput weight α")
		seed     = fs.Int64("seed", 1, "random seed (epoch e of a stream uses seed+e)")
		timeout  = fs.Duration("timeout", 20*time.Second, "run timeout per epoch")
		obsFlags = obs.RegisterFlags(fs)

		epochs    = fs.Int("epochs", 1, "scheduling epochs to stream through the deployment (coordinator/demo)")
		loop      = fs.Bool("loop", false, "worker mode: re-dial after each session; exit cleanly once the coordinator is gone")
		loopGrace = fs.Duration("loop-grace", 5*time.Second, "worker -loop: how long dials may fail before concluding the coordinator is gone")
		traceCSV  = fs.String("trace-csv", "", "build instances from this txgen CSV trace instead of the synthetic paper trace")
		traceOut  = fs.String("trace-out", "", "write this process's span dump (the /trace format) here on clean exit")
		resultOut = fs.String("result-json", "", "write the run summary (per-epoch utilities + recovery counters) here")
		decLogDir = fs.String("decision-log", "", "coordinator/demo: write the schema-versioned decision journal (one entry per epoch) to this directory and replay-verify it on clean exit")
		stableRep = fs.Int("stable-reports", 0, "early-stop after this many unimproved progress reports (0 = default 20; use a huge value to disable early stop for deterministic twin runs)")
		iters     = fs.Int("iters", 0, "iteration cap per worker task (0 = default 20000)")
		repEvery  = fs.Int("report-every", 0, "progress report cadence in iterations (0 = default 200)")
		throttle  = fs.Duration("throttle", 0, "worker pacing: sleep this long every 100 transitions (stretches runs so chaos can land mid-task)")
		acceptTO  = fs.Duration("accept-timeout", 0, "coordinator wait for workers to connect (0 = default 10s)")
		eventSpec = fs.String("events", "", "dynamic committee events, e.g. 'leave@2s:index=3;join@4s:index=3,size=500,latency=700'")

		faultSpec  = fs.String("fault-spec", "", "fault-injection spec, e.g. 'worker.send:after=2,times=1,action=drop;coordinator.assign:prob=0.1' (empty = off)")
		faultSeed  = fs.Int64("fault-seed", 1, "seed for the fault injector's trigger RNG")
		retryMax   = fs.Int("retry-max", 1, "worker session attempts (dial + reconnects); 1 = no retry")
		backoff    = fs.Duration("backoff", 50*time.Millisecond, "base reconnect backoff (doubles per attempt, jittered)")
		backoffCap = fs.Duration("backoff-cap", 2*time.Second, "reconnect backoff ceiling")
		heartbeat  = fs.Duration("heartbeat", 10*time.Second, "coordinator heartbeat timeout: silence before a worker is declared dead")
		taskTries  = fs.Int("task-attempts", 3, "dispatch attempts per task before it is abandoned")
		noFallback = fs.Bool("no-local-fallback", false, "fail instead of degrading to a local in-process solve when every worker is lost")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochs < 1 {
		return fmt.Errorf("epochs must be >= 1, got %d", *epochs)
	}
	fi, err := faultinject.Parse(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	events, err := parseEvents(*eventSpec)
	if err != nil {
		return err
	}
	var trace *txgen.Trace
	if *traceCSV != "" {
		f, err := os.Open(*traceCSV)
		if err != nil {
			return err
		}
		trace, err = txgen.ReadCSV(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("trace %s: %w", *traceCSV, err)
		}
	}

	reg, stopObs, err := obsFlags.Start("mvcom-dist", *traceOut != "" || *resultOut != "")
	if err != nil {
		return err
	}
	defer stopObs()
	if *traceOut != "" {
		// Written on clean exit only: a SIGKILLed incarnation leaves no
		// dump, and the cluster merge works from the survivors.
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mvcom-dist: trace-out:", err)
				return
			}
			if err := reg.Tracer().StreamJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "mvcom-dist: trace-out:", err)
			}
			_ = f.Close()
		}()
	}

	switch *mode {
	case "worker":
		w := dist.Worker{
			ID:          *id,
			Throttle:    *throttle,
			MaxAttempts: *retryMax,
			BackoffBase: *backoff,
			BackoffCap:  *backoffCap,
			FI:          fi,
			Obs:         obs.NewDistObserver(reg, "worker"),
			SEObs:       obs.NewSEObserver(reg),
		}
		if !*loop {
			res, err := w.Run(*connect)
			if err != nil {
				return err
			}
			fmt.Printf("worker %s finished: utility=%.1f iterations=%d\n", res.WorkerID, res.Utility, res.Iterations)
			return nil
		}
		// Loop mode: serve epoch after epoch. Between epochs the
		// coordinator tears its listener down and rebinds — and a late
		// re-admitted worker can be parked taskless when the session
		// ends — so every error inside the grace window is retried.
		// Past the window, a dial failure means the coordinator is gone
		// (clean exit); anything else is a real fault.
		sessions := 0
		lastOK := time.Now()
		for {
			res, err := w.Run(*connect)
			if err == nil {
				sessions++
				lastOK = time.Now()
				fmt.Printf("worker %s session %d: utility=%.1f iterations=%d\n", res.WorkerID, sessions, res.Utility, res.Iterations)
				continue
			}
			if time.Since(lastOK) > *loopGrace {
				if dist.IsDialError(err) {
					fmt.Printf("worker %s: coordinator gone, exiting after %d sessions\n", *id, sessions)
					return nil
				}
				return err
			}
			time.Sleep(50 * time.Millisecond)
		}

	case "coordinator", "demo":
		coObs := obs.NewDistObserver(reg, "coordinator")
		var dj *decisionlog.Journal
		if *decLogDir != "" {
			dj, err = decisionlog.Open(decisionlog.Options{Dir: *decLogDir, Registry: reg})
			if err != nil {
				return err
			}
			defer dj.Close()
		}
		bindAddr := *listen
		if *mode == "demo" {
			bindAddr = "127.0.0.1:0"
		}
		var (
			results  []epochResult
			best     = 0.0
			lastSol  core.Solution
			lastInst core.Instance
		)
		for e := 0; e < *epochs; e++ {
			epochSeed := *seed + int64(e)
			in, err := buildInstance(trace, epochSeed, *shards, *capacity, *alpha)
			if err != nil {
				return err
			}
			co, err := dist.NewCoordinator(bindAddr, dist.CoordinatorConfig{
				Instance:             in,
				Workers:              *workers,
				AcceptTimeout:        *acceptTO,
				RunTimeout:           *timeout,
				StableReports:        *stableRep,
				ReportEvery:          *repEvery,
				MaxIterations:        *iters,
				HeartbeatTimeout:     *heartbeat,
				MaxTaskAttempts:      *taskTries,
				DisableLocalFallback: *noFallback,
				Seed:                 epochSeed,
				Gamma:                *gamma,
				SEWorkers:            *sework,
				Adaptive:             *adaptive,
				Events:               events,
				FI:                   fi,
				Obs:                  coObs,
			})
			if err != nil {
				return err
			}
			if e == 0 {
				// Capture the bound port so every later epoch rebinds the
				// exact same address workers keep dialing.
				bindAddr = co.Addr()
				fmt.Printf("coordinator listening on %s, waiting for %d workers\n", co.Addr(), *workers)
			}

			var wg sync.WaitGroup
			if *mode == "demo" {
				wObs := obs.NewDistObserver(reg, "worker")
				seObs := obs.NewSEObserver(reg)
				for g := 0; g < *workers; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						w := dist.Worker{
							ID:          fmt.Sprintf("demo-%d", g),
							Throttle:    *throttle,
							MaxAttempts: *retryMax,
							BackoffBase: *backoff,
							BackoffCap:  *backoffCap,
							FI:          fi,
							Obs:         wObs,
							SEObs:       seObs,
						}
						if _, err := w.Run(co.Addr()); err != nil {
							fmt.Fprintf(os.Stderr, "worker %d: %v\n", g, err)
						}
					}()
				}
			}
			sol, inst, err := co.Run()
			wg.Wait()
			_ = co.Close()
			if err != nil {
				return fmt.Errorf("epoch %d: %w", e, err)
			}
			fmt.Printf("epoch %d converged: %d committees permitted, %d TXs, utility %.1f\n", e, sol.Count, sol.Load, sol.Utility)
			var selected []int
			for i, on := range sol.Selected {
				if on {
					selected = append(selected, i)
				}
			}
			results = append(results, epochResult{
				Epoch: e, Utility: sol.Utility, Count: sol.Count, Load: sol.Load,
				Iterations: sol.Iterations, Selected: selected,
			})
			if de := dj.Acquire(); de != nil {
				fillDistEntry(de, e, co, inst, sol, selected, len(events) > 0)
				if err := dj.Append(de); err != nil {
					return fmt.Errorf("epoch %d: decision journal: %w", e, err)
				}
			}
			if sol.Utility > best {
				best = sol.Utility
			}
			lastSol, lastInst = sol, inst
		}
		fmt.Printf("converged: %d committees permitted, %d TXs, utility %.1f\n", lastSol.Count, lastSol.Load, lastSol.Utility)
		fmt.Printf("capacity use %.1f%%, Nmin=%d satisfied=%v\n",
			100*float64(lastSol.Load)/float64(lastInst.Capacity), lastInst.Nmin, lastSol.Count >= lastInst.Nmin)
		var decStats *decisionlog.VerifyStats
		if dj != nil {
			if err := dj.Sync(); err != nil {
				return err
			}
			st, err := decisionlog.VerifyDir(dj.Dir())
			if err != nil {
				return err
			}
			dj.ReplayVerified(st.Ok())
			decStats = &st
			fmt.Printf("decision journal: %d entries, %d replayed, %d skipped, %d failed\n",
				st.Entries, st.Replayed, st.Skipped, st.Failed)
		}
		if *resultOut != "" {
			out := runResult{Epochs: results, BestUtility: best, Decisions: decStats}
			if coObs != nil {
				out.TasksReassigned = coObs.TasksReassigned.Value()
				out.TasksAbandoned = coObs.TasksAbandoned.Value()
				out.LocalFallbacks = coObs.LocalFallbacks.Value()
			}
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*resultOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		// Fail after the summary is on disk so a divergence is diagnosable
		// from the artifacts.
		if decStats != nil && !decStats.Ok() {
			return fmt.Errorf("decision replay: %d of %d entries diverged: %s",
				decStats.Failed, decStats.Entries, strings.Join(decStats.Errors, "; "))
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// fillDistEntry records one distributed epoch's decision. A clean run is
// replayable from the per-task records — each worker's engine is a
// deterministic function of (instance, solver config, task seed) stepped
// exactly the recorded number of rounds — and a local-fallback run from
// the coordinator's own SE fingerprint. Runs with dynamic events or the
// adaptive schedule are journaled for audit but marked non-replayable:
// their trajectories depend on wall-clock arrival times, not just the
// recorded inputs.
func fillDistEntry(e *decisionlog.Entry, epoch int, co *dist.Coordinator, in core.Instance, sol core.Solution, selected []int, hasEvents bool) {
	e.Epoch = epoch
	e.DDL = in.DDL
	e.Alpha = in.Alpha
	e.Capacity = in.Capacity
	e.Nmin = in.Nmin
	for i := range in.Sizes {
		e.Shards = append(e.Shards, decisionlog.ShardRecord{
			Committee: i, Size: in.Sizes[i], Latency: in.Latencies[i], Age: in.Age(i),
		})
	}
	e.Selected = append(e.Selected, selected...)
	e.Utility = sol.Utility
	e.Load = sol.Load
	e.Count = sol.Count
	e.Iterations = sol.Iterations
	e.Marginals = core.MarginalsInto(e.Marginals, &in, sol)
	e.Rejected = core.RejectedCounterfactualsInto(e.Rejected, &in, sol, 8)

	eff := core.NewSE(co.SolverConfig()).Config()
	tasks, local := co.TaskResults()
	if local {
		e.Solver = decisionlog.FingerprintSE(eff)
	} else {
		e.Solver = decisionlog.SolverFingerprint{
			Kind: decisionlog.KindDist, Seed: eff.Seed, Beta: eff.Beta, Tau: eff.Tau,
			Gamma: eff.Gamma, Workers: eff.Workers, MaxIters: eff.MaxIters, Adaptive: eff.Adaptive,
		}
		for _, r := range tasks {
			tr := decisionlog.TaskRecord{TaskID: r.TaskID, Iterations: r.Iterations, Utility: r.Utility, Err: r.Err}
			var g int
			if _, err := fmt.Sscanf(r.TaskID, "task-%d", &g); err == nil {
				tr.Seed = co.TaskSeed(g)
			}
			if r.Err == "" && r.Selected != nil {
				for i, on := range r.Selected {
					if on {
						tr.Selected = append(tr.Selected, i)
					}
				}
			}
			e.Tasks = append(e.Tasks, tr)
		}
	}
	switch {
	case hasEvents:
		e.NonReplayable = "events"
	case !local && eff.Adaptive:
		e.NonReplayable = "adaptive-dist"
	}
}

// buildInstance makes epoch e's scheduling input: from the external
// txgen trace when one was supplied, else from the synthetic paper
// trace. Either way the construction is a pure function of the seed, so
// a chaos-ridden multi-process run and its clean single-process twin
// solve byte-identical instances.
func buildInstance(trace *txgen.Trace, seed int64, shards, capacity int, alpha float64) (core.Instance, error) {
	if trace != nil {
		return experiments.TraceInstance(trace, seed, shards, capacity, alpha, 0.5)
	}
	return experiments.PaperInstance(seed, shards, capacity, alpha, 0.5)
}

// parseEvents parses the -events grammar: semicolon-separated
// `kind@offset[:key=val,...]` clauses where kind is join|leave, offset
// is a Go duration after run start, and keys are index, size, latency.
func parseEvents(spec string) ([]dist.TimedEvent, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []dist.TimedEvent
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		head, params, _ := strings.Cut(clause, ":")
		kindStr, offStr, ok := strings.Cut(head, "@")
		if !ok {
			return nil, fmt.Errorf("events: clause %q lacks '@offset'", clause)
		}
		var kind core.EventKind
		switch strings.TrimSpace(kindStr) {
		case "join":
			kind = core.EventJoin
		case "leave":
			kind = core.EventLeave
		default:
			return nil, fmt.Errorf("events: unknown kind %q (want join|leave)", kindStr)
		}
		after, err := time.ParseDuration(strings.TrimSpace(offStr))
		if err != nil || after < 0 {
			return nil, fmt.Errorf("events: bad offset %q", offStr)
		}
		ev := core.Event{Kind: kind, Index: -1}
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("events: bad parameter %q", kv)
				}
				switch key {
				case "index":
					ev.Index, err = strconv.Atoi(val)
				case "size":
					ev.Size, err = strconv.Atoi(val)
				case "latency":
					ev.Latency, err = strconv.ParseFloat(val, 64)
				default:
					return nil, fmt.Errorf("events: unknown key %q", key)
				}
				if err != nil {
					return nil, fmt.Errorf("events: bad value %q for %s", val, key)
				}
			}
		}
		if kind == core.EventLeave && ev.Index < 0 {
			return nil, fmt.Errorf("events: leave needs index=N (clause %q)", clause)
		}
		if kind == core.EventJoin && ev.Index < 0 && (ev.Size <= 0 || ev.Latency <= 0) {
			return nil, fmt.Errorf("events: join needs size and latency (or index=N to rejoin) in clause %q", clause)
		}
		out = append(out, dist.TimedEvent{After: after, Event: ev})
	}
	return out, nil
}
