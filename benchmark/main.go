// Command benchmark measures the MVCom serving plane end to end: it
// builds the plane the way mvcom-serve does, drives it over loopback
// HTTP, framed TCP or in-process Submit from two generator goroutines,
// and reports committed tx/s, admission→commit latency and the
// scheduling outcome per workload. A traced run (-trace 1) adds the
// per-layer ledger and writes an obs trace dump per workload.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh -seed 1                        # all workloads
//	bash benchmark/run.sh -workload http-steady -trace 1 # one, traced
//	bash benchmark/run.sh -compare a/runs.jsonl b/runs.jsonl
//
// The last line of standard output is one JSON object with keys
// correct, attempted, failed and metrics; every run also appends its
// results to runs.jsonl in -out. The exit code is non-zero when a
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed for the request trace, the pipeline and SE")
		seconds = fs.Int("seconds", 20, "measurement window per workload in seconds; a traced window is half as long")
		trace   = fs.Int("trace", 0, "1 adds a traced rerun of each workload and reports the per-layer metrics")
		out     = fs.String("out", filepath.Join("benchmark", "out"), "directory for runs.jsonl, trace dumps and decision journals")
		compare = fs.Bool("compare", false, "compare two runs.jsonl files given as arguments against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two runs.jsonl files")
			return 2
		}
		ok, err := compareRuns(sp, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		todo = []workload{w}
	}
	o := runOpts{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, outDir: *out}
	code := 0
	for _, w := range todo {
		ok, err := runWorkload(w, o, sp, stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// runWorkload measures w untraced and, when o.traced, again with the
// probe for half the window. It prints the tables and the result line,
// appends the results to runs.jsonl, and reports whether every
// correctness check passed.
func runWorkload(w workload, o runOpts, sp *spec, stdout io.Writer) (bool, error) {
	uo := o
	uo.traced = false
	u, err := measure(w, uo)
	if err != nil {
		return false, err
	}
	results, line := []*result{u}, u
	printResult(stdout, u, uo)
	if o.traced {
		o.window = max(o.window/2, time.Second)
		t, err := measure(w, o)
		if err != nil {
			return false, err
		}
		if ut, ok := u.get("committed_tps"); ok {
			tt, _ := t.get("committed_tps")
			up, _ := u.get("commit_p50_ms")
			tp, _ := t.get("commit_p50_ms")
			slow := 1 - tt.value/ut.value
			lag := tp.value/up.value - 1
			t.add("trace.overhead_frac", "ratio", math.Max(slow, lag),
				fmt.Sprintf("committed_tps %+.2f%%, commit_p50 %+.2f%%", -100*slow, 100*lag))
		}
		printResult(stdout, t, o)
		results, line = append(results, t), t
	}
	ok := true
	for _, r := range results {
		ok = ok && len(r.problems) == 0
		if err := appendRecord(o.outDir, o.seed, r); err != nil {
			return false, err
		}
	}
	list := sp.EndToEnd
	if o.traced {
		list = sp.PerLayer
	}
	enc, err := resultLine(line, list, ok)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(enc))
	return ok, nil
}

// printResult writes one window's table: every metric with its unit and
// note, then the split and the correctness verdict.
func printResult(w io.Writer, r *result, o runOpts) {
	kind := "end-to-end"
	if r.traced {
		kind = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %s window) ==\n", r.workload, kind, o.seed, o.window)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %16.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if r.split != "" {
		fmt.Fprintf(w, "  split: %s\n", r.split)
	}
	if r.dump != "" {
		fmt.Fprintf(w, "  trace dump: %s\n", r.dump)
	}
	if len(r.problems) == 0 {
		fmt.Fprintf(w, "  checks: ok (%d requests, %d failed)\n", r.attempted, r.failed)
		return
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine encodes the final result object with exactly the metrics
// in list.
func resultLine(r *result, list []metricSpec, correct bool) ([]byte, error) {
	ms := make(map[string]value, len(list))
	for _, s := range list {
		m, ok := r.get(s.Name)
		if !ok {
			return nil, fmt.Errorf("%s: no value for metric %s", r.workload, s.Name)
		}
		if m.unit != s.Unit {
			return nil, fmt.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", r.workload, s.Name, m.unit, s.Unit)
		}
		ms[s.Name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, ms})
}

// record is one line of runs.jsonl: every metric one window reported.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func appendRecord(outDir string, seed int64, r *result) error {
	rec := record{Workload: r.workload, Seed: seed, Correct: len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	if r.traced {
		rec.Trace = 1
	}
	for _, m := range r.metrics {
		rec.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
