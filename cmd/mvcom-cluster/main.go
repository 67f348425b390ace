// Command mvcom-cluster deploys the full MVCom distributed execution
// mode as separate OS processes — a coordinator and N workers talking
// real TCP over loopback — drives an epoch stream through it under
// process-level chaos (a worker SIGKILLed mid-run and restarted), and
// gates the outcome:
//
//   - the run completes every epoch with exit 0 everywhere,
//   - the best utility equals a clean single-process twin of the same
//     seed (the kill was absorbed without changing the answer),
//   - no task was abandoned and no local fallback fired,
//   - the per-process trace dumps merge into one causal forest with
//     zero orphan spans.
//
// Every process runs the one mvcom-dist binary: the coordinator and the
// twin build epoch e's instance from seed+e, and the span dumps merge
// in-process. It is the binary behind the CI chaos stage (./ci.sh
// cluster) and the nightly extended soak. Quick start:
//
//	go build -o /tmp/bin ./cmd/mvcom-dist ./cmd/mvcom-cluster
//	/tmp/bin/mvcom-cluster -out /tmp/cluster -workers 2 -epochs 3 -kill w1
//
// Artifacts land in -out: per-process stdout/stderr logs, per-process
// span dumps, the merged cluster_timeline.json and its text tree
// cluster_timeline.txt, result JSONs for the chaos run and its twin,
// the coordinator's decision journal, and summary.json with every gate
// verdict. A -out whose decisions directory already holds a journal is
// refused: the coordinator would append to it, and the decision-replay
// gate would count the earlier run's entries too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mvcom/internal/decisionlog"
	"mvcom/internal/faultinject"
	"mvcom/internal/procharness"
	"mvcom/internal/tracemerge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-cluster:", err)
		os.Exit(1)
	}
}

// heartbeat is the coordinator's heartbeat timeout: silence this long
// declares a worker dead, so a SIGKILLed worker's task is reassigned
// well inside the epoch.
const heartbeat = 2 * time.Second

// gate is one pass/fail verdict in the summary.
type gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// procInfo records one incarnation for the summary.
type procInfo struct {
	Name        string `json:"name"`
	Incarnation int    `json:"incarnation"`
	PID         int    `json:"pid"`
	ExitCode    int    `json:"exit_code"`
	Killed      bool   `json:"killed_by_harness"`
}

// summary is the machine-readable outcome written to summary.json.
// Nodes carries the merged timeline's per-process ingest stats —
// trace-ring fill (events retained) and drop counts plus each worker's
// estimated clock offset against the coordinator's reference clock — so
// a CI run's alignment quality is auditable without re-opening the
// timeline artifact.
type summary struct {
	Addr            string                   `json:"coordinator_addr"`
	Workers         int                      `json:"workers"`
	Epochs          int                      `json:"epochs"`
	ChaosSpec       string                   `json:"chaos_spec"`
	Restarts        int                      `json:"restarts"`
	EpochUtilities  []float64                `json:"epoch_utilities"`
	TwinUtilities   []float64                `json:"twin_utilities,omitempty"`
	BestUtility     float64                  `json:"best_utility"`
	TwinBest        float64                  `json:"twin_best,omitempty"`
	TasksReassigned int64                    `json:"tasks_reassigned"`
	TasksAbandoned  int64                    `json:"tasks_abandoned"`
	LocalFallbacks  int64                    `json:"local_fallbacks"`
	Decisions       *decisionlog.VerifyStats `json:"decisions,omitempty"`
	MergedDumps     int                      `json:"merged_dumps"`
	Spans           int                      `json:"spans"`
	Orphans         int                      `json:"orphan_spans"`
	Nodes           []tracemerge.NodeInfo    `json:"nodes,omitempty"`
	MergeWarnings   []string                 `json:"merge_warnings,omitempty"`
	Procs           []procInfo               `json:"procs"`
	Gates           []gate                   `json:"gates"`
	Pass            bool                     `json:"pass"`
}

// distResult mirrors mvcom-dist's -result-json document.
type distResult struct {
	Epochs []struct {
		Epoch    int     `json:"epoch"`
		Utility  float64 `json:"utility"`
		Selected []int   `json:"selected"`
	} `json:"epochs"`
	BestUtility     float64                  `json:"best_utility"`
	TasksReassigned int64                    `json:"tasks_reassigned"`
	TasksAbandoned  int64                    `json:"tasks_abandoned"`
	LocalFallbacks  int64                    `json:"local_fallbacks"`
	Decisions       *decisionlog.VerifyStats `json:"decisions"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-cluster", flag.ContinueOnError)
	var (
		workers  = fs.Int("workers", 2, "worker processes to launch")
		epochs   = fs.Int("epochs", 3, "scheduling epochs to stream through the deployment")
		shards   = fs.Int("shards", 24, "committees |I| per epoch")
		capacity = fs.Int("capacity", 15000, "final-block TX capacity Ĉ")
		alpha    = fs.Float64("alpha", 1.5, "throughput weight α")
		seed     = fs.Int64("seed", 1, "random seed (shared by chaos run and twin)")
		iters    = fs.Int("iters", 4000, "iteration cap per worker task")
		repEvery = fs.Int("report-every", 50, "progress report cadence in iterations")
		throttle = fs.Duration("throttle", 10*time.Millisecond, "worker pacing per 100 transitions (stretches epochs so the kill lands mid-task)")
		epochTO  = fs.Duration("epoch-timeout", 60*time.Second, "run timeout per epoch")

		outDir = fs.String("out", "cluster-out", "artifact directory (logs, dumps, timeline, summary)")
		binDir = fs.String("bin-dir", "", "directory holding mvcom-dist (default: this binary's directory)")

		kill      = fs.String("kill", "w1", "worker to SIGKILL and restart mid-run ('' disables the built-in chaos)")
		killAfter = fs.Int("kill-after-progress", 4, "fire the kill once the coordinator has received this many progress reports")
		restartD  = fs.Duration("restart-delay", 300*time.Millisecond, "pause between the SIGKILL and the relaunch")
		procFault = fs.String("proc-fault", "", "free-form process fault spec (overrides -kill), e.g. 'proc.w1:prob=0.05,action=restart,delay=200ms'")
		procTick  = fs.Duration("proc-tick", 150*time.Millisecond, "chaos evaluation cadence for -proc-fault")
		faultSeed = fs.Int64("fault-seed", 1, "seed for the process fault injector")

		twin      = fs.Bool("twin", true, "run the clean single-process twin and require utility equality")
		events    = fs.String("events", "", "dynamic committee events forwarded to the coordinator (mvcom-dist -events grammar)")
		excluded  = fs.String("expect-excluded", "", "comma-separated shard indices that must be absent from every epoch's selection (Theorem 2 leave check)")
		taskTries = fs.Int("task-attempts", 3, "dispatch attempts per task before it is abandoned (raise under high fault rates)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 || *epochs < 1 {
		return fmt.Errorf("need at least one worker and one epoch (workers=%d epochs=%d)", *workers, *epochs)
	}
	excludedIdx, err := parseExcluded(*excluded)
	if err != nil {
		return err
	}
	decisionsDir := filepath.Join(*outDir, "decisions")
	if err := decisionlog.RequireEmptyDir(decisionsDir); err != nil {
		return err
	}

	distBin, err := resolveBinaries(*binDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Process-level chaos: the built-in trigger arms a one-shot restart
	// of the chosen worker; -proc-fault substitutes any spec in the
	// faultinject grammar.
	chaosSpec := ""
	switch {
	case *procFault != "":
		chaosSpec = *procFault
	case *kill != "":
		chaosSpec = fmt.Sprintf("proc.%s:times=1,action=restart,delay=%s", *kill, *restartD)
	}
	fi, err := faultinject.Parse(chaosSpec, *faultSeed)
	if err != nil {
		return err
	}

	h := procharness.New(procharness.Options{LogDir: *outDir, FI: fi})
	defer func() { _ = h.Close() }()

	// Stage 1: coordinator with an ephemeral port, discovered through
	// the readiness probe's capture group; likewise its metrics port.
	coordResult := filepath.Join(*outDir, "coordinator_result.json")
	coordArgs := []string{
		"-mode", "coordinator", "-listen", "127.0.0.1:0",
		"-workers", strconv.Itoa(*workers), "-epochs", strconv.Itoa(*epochs),
		"-shards", strconv.Itoa(*shards), "-capacity", strconv.Itoa(*capacity),
		"-alpha", fmt.Sprint(*alpha), "-seed", strconv.FormatInt(*seed, 10),
		"-iters", strconv.Itoa(*iters), "-report-every", strconv.Itoa(*repEvery),
		"-stable-reports", "1000000", // run every task to the cap: twin-comparable
		"-timeout", epochTO.String(), "-accept-timeout", "30s",
		"-heartbeat", heartbeat.String(), "-task-attempts", strconv.Itoa(*taskTries),
		"-metrics-addr", "127.0.0.1:0",
		"-result-json", coordResult,
		"-trace-out", filepath.Join(*outDir, "coordinator_trace.json"),
		"-decision-log", decisionsDir,
	}
	if *events != "" {
		coordArgs = append(coordArgs, "-events", *events)
	}
	if err := h.Define(procharness.Spec{
		Name:         "coordinator",
		Path:         distBin,
		Args:         coordArgs,
		ReadyLog:     `coordinator listening on ([0-9.:]+),`,
		ReadyTimeout: 20 * time.Second,
	}); err != nil {
		return err
	}
	if _, err := h.Start("coordinator"); err != nil {
		return err
	}
	m, err := h.WaitReady("coordinator")
	if err != nil {
		return err
	}
	addr := m[1]
	mm, err := h.Proc("coordinator").WaitLog(`metrics on http://([0-9.:]+)/metrics`, 10*time.Second)
	if err != nil {
		return err
	}
	metricsURL := "http://" + mm[1] + "/metrics"
	fmt.Printf("coordinator: %s (metrics %s)\n", addr, metricsURL)

	// Stage 2: workers, staggered, in -loop mode so they serve the whole
	// epoch stream and exit cleanly once the coordinator is gone.
	var workerNames []string
	for i := 1; i <= *workers; i++ {
		name := fmt.Sprintf("w%d", i)
		workerNames = append(workerNames, name)
		if err := h.Define(procharness.Spec{
			Name: name,
			Path: distBin,
			Args: []string{
				"-mode", "worker", "-connect", addr, "-id", name,
				"-loop", "-loop-grace", "8s",
				"-retry-max", "6", "-backoff", "50ms", "-backoff-cap", "500ms",
				"-throttle", throttle.String(),
				"-trace-out", filepath.Join(*outDir, name+"_trace.json"),
			},
		}); err != nil {
			return err
		}
		if _, err := h.Start(name); err != nil {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Stage 3: chaos. The built-in trigger waits until the coordinator
	// has consumed real mid-task progress, then lets the injector's
	// one-shot restart rule fire — SIGKILL, pause, fresh incarnation.
	var stopChaos func()
	switch {
	case *procFault != "":
		stopChaos = h.StartChaos(*procTick)
	case *kill != "":
		if err := waitProgress(metricsURL, *killAfter, *epochTO); err != nil {
			return fmt.Errorf("kill trigger: %w", err)
		}
		fired := h.EvalProcFaults()
		fmt.Printf("chaos: fired %v on %s\n", firedActions(fired), *kill)
	}

	// Stage 4: completion. The coordinator exits after the last epoch;
	// loop workers notice the dead address and exit 0 on their own.
	coordDeadline := time.Duration(*epochs)**epochTO + 30*time.Second
	coordCode, coordErr := h.WaitExit("coordinator", coordDeadline)
	if stopChaos != nil {
		stopChaos()
	}
	var gates []gate
	gates = append(gates, gate{
		Name: "coordinator-exit-0", Pass: coordErr == nil && coordCode == 0,
		Detail: fmt.Sprintf("code=%d err=%v", coordCode, coordErr),
	})
	workersOK := true
	var workerDetail []string
	for _, name := range workerNames {
		code, err := h.WaitExit(name, 20*time.Second)
		if err != nil || code != 0 {
			workersOK = false
		}
		workerDetail = append(workerDetail, fmt.Sprintf("%s:code=%d,err=%v", name, code, err))
	}
	gates = append(gates, gate{Name: "workers-exit-0", Pass: workersOK, Detail: strings.Join(workerDetail, " ")})

	restarts := 0
	for _, p := range h.Procs() {
		if p.Incarnation > 0 {
			restarts++
		}
	}
	if chaosSpec != "" {
		gates = append(gates, gate{
			Name: "chaos-restart-fired", Pass: restarts >= 1,
			Detail: fmt.Sprintf("restarts=%d spec=%q", restarts, chaosSpec),
		})
	}

	// Stage 5: results and the clean twin.
	var res distResult
	if err := readJSON(coordResult, &res); err != nil {
		return fmt.Errorf("coordinator result: %w", err)
	}
	gates = append(gates,
		gate{Name: "no-abandoned-tasks", Pass: res.TasksAbandoned == 0, Detail: fmt.Sprintf("abandoned=%d", res.TasksAbandoned)},
		gate{Name: "no-local-fallbacks", Pass: res.LocalFallbacks == 0, Detail: fmt.Sprintf("fallbacks=%d", res.LocalFallbacks)},
		decisionGate(res.Decisions, *epochs, *events != ""),
	)
	if *kill != "" && *procFault == "" {
		gates = append(gates, gate{
			Name: "kill-absorbed-by-reassignment", Pass: res.TasksReassigned >= 1,
			Detail: fmt.Sprintf("reassigned=%d", res.TasksReassigned),
		})
	}
	if len(excludedIdx) > 0 {
		bad := checkExcluded(res, excludedIdx)
		gates = append(gates, gate{
			Name: "departed-shards-excluded", Pass: len(bad) == 0,
			Detail: fmt.Sprintf("violations=%v expected-excluded=%v", bad, excludedIdx),
		})
	}

	var twinRes distResult
	if *twin {
		twinResult := filepath.Join(*outDir, "twin_result.json")
		if err := h.Define(procharness.Spec{
			Name: "twin",
			Path: distBin,
			Args: []string{
				"-mode", "demo", "-workers", strconv.Itoa(*workers), "-epochs", strconv.Itoa(*epochs),
				"-shards", strconv.Itoa(*shards), "-capacity", strconv.Itoa(*capacity),
				"-alpha", fmt.Sprint(*alpha), "-seed", strconv.FormatInt(*seed, 10),
				"-iters", strconv.Itoa(*iters), "-report-every", strconv.Itoa(*repEvery),
				"-stable-reports", "1000000",
				"-timeout", epochTO.String(),
				"-result-json", twinResult,
			},
		}); err != nil {
			return err
		}
		if _, err := h.Start("twin"); err != nil {
			return err
		}
		if code, err := h.WaitExit("twin", coordDeadline); err != nil || code != 0 {
			return fmt.Errorf("twin failed (code %d, %v)", code, err)
		}
		if err := readJSON(twinResult, &twinRes); err != nil {
			return fmt.Errorf("twin result: %w", err)
		}
		equal, detail := utilitiesEqual(res, twinRes)
		gates = append(gates, gate{Name: "twin-utility-equal", Pass: equal, Detail: detail})
	}

	// Stage 6: merge every surviving process's span dump into one
	// causal timeline. SIGKILLed incarnations never wrote theirs — the
	// merge works from the survivors, whose parents all live in the
	// coordinator dump, so a healthy run still has zero orphan spans.
	var dumps []*tracemerge.Dump
	for _, name := range append([]string{"coordinator"}, workerNames...) {
		path := filepath.Join(*outDir, name+"_trace.json")
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			continue
		}
		d, err := tracemerge.Load(name + "=" + path)
		if err != nil {
			return err
		}
		dumps = append(dumps, d)
	}
	merged := tracemerge.Merge(dumps)
	if err := writeFile(filepath.Join(*outDir, "cluster_timeline.json"), merged.WriteJSON); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*outDir, "cluster_timeline.txt"), merged.WriteTree); err != nil {
		return err
	}
	spans, orphans := merged.Timeline.Spans, len(merged.Timeline.Orphans)
	gates = append(gates, gate{
		Name: "zero-orphan-spans", Pass: orphans == 0,
		Detail: fmt.Sprintf("dumps=%d spans=%d orphans=%d", len(dumps), spans, orphans),
	})
	for _, n := range merged.Nodes {
		fmt.Printf("node %-14s events=%-6d dropped=%-6d offset=%+.6fs (%d clock samples)\n",
			n.Name, n.Events, n.Dropped, n.OffsetSec, n.ClockSamples)
	}

	// Stage 7: teardown and the leak gate — after Close, no incarnation
	// may still exist from the kernel's point of view.
	procs := h.Procs()
	if err := h.Close(); err != nil {
		return err
	}
	leaked := 0
	var infos []procInfo
	for _, p := range procs {
		if p.Alive() {
			leaked++
		}
		_, code := p.Exited()
		infos = append(infos, procInfo{
			Name: p.Name, Incarnation: p.Incarnation, PID: p.PID(),
			ExitCode: code, Killed: p.KilledByHarness(),
		})
	}
	gates = append(gates, gate{Name: "no-leaked-processes", Pass: leaked == 0, Detail: fmt.Sprintf("leaked=%d of %d", leaked, len(procs))})

	sum := summary{
		Addr: addr, Workers: *workers, Epochs: *epochs, ChaosSpec: chaosSpec,
		Restarts:       restarts,
		EpochUtilities: utilities(res), BestUtility: res.BestUtility,
		TasksReassigned: res.TasksReassigned, TasksAbandoned: res.TasksAbandoned,
		LocalFallbacks: res.LocalFallbacks, Decisions: res.Decisions,
		MergedDumps: len(dumps), Spans: spans, Orphans: orphans,
		Nodes: merged.Nodes, MergeWarnings: merged.Warnings,
		Procs: infos, Gates: gates, Pass: true,
	}
	if *twin {
		sum.TwinUtilities = utilities(twinRes)
		sum.TwinBest = twinRes.BestUtility
	}
	for _, g := range gates {
		status := "PASS"
		if !g.Pass {
			status = "FAIL"
			sum.Pass = false
		}
		fmt.Printf("gate %-30s %s  %s\n", g.Name, status, g.Detail)
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	summaryPath := filepath.Join(*outDir, "summary.json")
	if err := os.WriteFile(summaryPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("summary: %s (best utility %.1f, %d restarts, %d spans)\n", summaryPath, sum.BestUtility, restarts, spans)
	if !sum.Pass {
		return fmt.Errorf("%d gate(s) failed", countFailed(gates))
	}
	return nil
}

// resolveBinaries locates the one binary the harness launches,
// mvcom-dist, next to this binary unless -bin-dir overrides.
func resolveBinaries(binDir string) (string, error) {
	if binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			return "", err
		}
		binDir = filepath.Dir(exe)
	}
	distBin := filepath.Join(binDir, "mvcom-dist")
	if _, err := os.Stat(distBin); err != nil {
		return "", fmt.Errorf("missing binary %s (build with: go build -o %s ./cmd/mvcom-dist)", distBin, binDir)
	}
	return distBin, nil
}

// waitProgress polls the coordinator's Prometheus endpoint until the
// received-progress counter reaches n — proof the epoch is mid-flight
// and a kill will land on a worker holding a live task.
func waitProgress(metricsURL string, n int, timeout time.Duration) error {
	const metric = `mvcom_dist_messages_total{role="coordinator",dir="rx",type="progress"}`
	return procharness.PollHTTP(metricsURL, timeout, func(status int, body []byte) bool {
		if status != 200 {
			return false
		}
		v, ok := metricValue(string(body), metric)
		return ok && v >= float64(n)
	})
}

// metricValue extracts one metric's value from Prometheus text.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// decisionGate judges the coordinator's decision-journal verification: a
// journal must exist with one entry per epoch and zero replay failures,
// and — absent dynamic events, which legitimately mark entries
// non-replayable — every entry must have replayed bit-identically, chaos
// notwithstanding.
func decisionGate(d *decisionlog.VerifyStats, epochs int, hasEvents bool) gate {
	if d == nil {
		return gate{Name: "decision-replay", Pass: false, Detail: "coordinator result has no decisions block"}
	}
	pass := d.Entries == epochs && d.Failed == 0
	if !hasEvents {
		pass = pass && d.Replayed == d.Entries
	}
	return gate{
		Name: "decision-replay", Pass: pass,
		Detail: fmt.Sprintf("entries=%d replayed=%d skipped=%d failed=%d", d.Entries, d.Replayed, d.Skipped, d.Failed),
	}
}

// utilitiesEqual requires the chaos run and its twin to agree on every
// epoch's utility exactly — both are maxima over the same deterministic
// per-seed solves, so any difference means a task was lost or mutated.
func utilitiesEqual(a, b distResult) (bool, string) {
	if len(a.Epochs) != len(b.Epochs) {
		return false, fmt.Sprintf("epoch counts differ: %d vs %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		if a.Epochs[i].Utility != b.Epochs[i].Utility {
			return false, fmt.Sprintf("epoch %d: chaos %.6f vs twin %.6f", i, a.Epochs[i].Utility, b.Epochs[i].Utility)
		}
	}
	return true, fmt.Sprintf("%d epochs identical (best %.1f)", len(a.Epochs), a.BestUtility)
}

// checkExcluded returns the epochs×indices where a shard that should
// have departed (Theorem 2 leave event) was still selected.
func checkExcluded(res distResult, excluded []int) []string {
	var bad []string
	for _, ep := range res.Epochs {
		sel := make(map[int]bool, len(ep.Selected))
		for _, i := range ep.Selected {
			sel[i] = true
		}
		for _, i := range excluded {
			if sel[i] {
				bad = append(bad, fmt.Sprintf("epoch%d:shard%d", ep.Epoch, i))
			}
		}
	}
	return bad
}

// parseExcluded parses the -expect-excluded comma list.
func parseExcluded(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("expect-excluded: bad index %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func utilities(r distResult) []float64 {
	out := make([]float64, len(r.Epochs))
	for i, ep := range r.Epochs {
		out[i] = ep.Utility
	}
	return out
}

func firedActions(fired []procharness.FiredFault) []string {
	out := make([]string, len(fired))
	for i, f := range fired {
		out[i] = f.Proc + ":" + f.Action.String()
	}
	return out
}

func countFailed(gates []gate) int {
	n := 0
	for _, g := range gates {
		if !g.Pass {
			n++
		}
	}
	return n
}
