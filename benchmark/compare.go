package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

// gate is a metric with the bound -compare holds it to: an absolute
// amount when abs is set, otherwise a share of the baseline's |median|.
type gate struct {
	metricSpec
	abs bool
}

// extraGates are end-to-end metrics that BENCHMARK.json leaves out
// because a bound given as a share of the baseline median cannot
// express them: failed_frac and expired_frac read 0 on most workloads,
// and utility_per_epoch is negative wherever every shard commits.
var extraGates = []gate{
	{metricSpec{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0.01}, true},
	{metricSpec{Name: "expired_frac", Unit: "ratio", Better: "lower", Bound: 0.01}, true},
	{metricSpec{Name: "utility_per_epoch", Unit: "U", Better: "higher", Bound: 0.1}, false},
}

// reportedOnly are end-to-end metrics -compare shows without gating
// them. Admission is about 0.3 ms of pure CPU work, and this machine's
// speed changes between runs moved ten-run sets of admit_p50_ms apart
// by up to 31% and spread them by up to 39%, beyond the widest bound a
// benchmark may declare. admit_p90_ms on solve-capacity sits on the
// edge of the Submits that wait behind a flush's drain.
var reportedOnly = []gate{
	{metricSpec: metricSpec{Name: "admit_p50_ms", Unit: "ms", Better: "lower"}},
	{metricSpec: metricSpec{Name: "admit_p90_ms", Unit: "ms", Better: "lower"}},
}

// regressed reports whether cur is worse than base by more than g's
// bound. A relative bound scales with |base|, so a negative utility
// baseline still gets a positive allowance.
func regressed(g gate, base, cur float64) bool {
	allowed := g.Bound
	if !g.abs {
		allowed *= math.Abs(base)
	}
	worse := cur - base
	if g.Better == "higher" {
		worse = -worse
	}
	return worse > allowed
}

// loadRecords reads the untraced windows of a runs.jsonl file, grouped
// by workload and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareRuns prints, per workload and end-to-end metric, the median
// and quartiles of run set a and of run set b, and gates b's median
// against a's with the metric's bound and direction. It reports false
// when any metric of b is worse than the bound allows.
func compareRuns(sp *spec, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	const format = "%-15s %-18s %-34s %-34s %8s %7s  %s\n"
	fmt.Fprintf(w, format, "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "B-A", "bound", "verdict")
	gates := make([]gate, 0, len(sp.EndToEnd)+len(extraGates)+len(reportedOnly))
	for _, m := range sp.EndToEnd {
		gates = append(gates, gate{metricSpec: m})
	}
	gates = append(append(gates, extraGates...), reportedOnly...)
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		for _, g := range gates {
			va, vb := ma[g.Name], mb[g.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			diff := fmt.Sprintf("%+.2f%%", 100*(bm-am)/math.Abs(am))
			bound := fmt.Sprintf("%.0f%%", 100*g.Bound)
			if g.abs {
				diff, bound = fmt.Sprintf("%+.4f", bm-am), fmt.Sprintf("±%.4f", g.Bound)
			}
			reversed := g
			reversed.Better = opposite(g.Better)
			verdict := "ok"
			switch {
			case g.Bound == 0:
				verdict, bound = "reported", "-"
			case regressed(g, am, bm):
				verdict, ok = "WORSE", false
			case regressed(reversed, am, bm):
				verdict = "better"
			}
			fmt.Fprintf(w, format, wl.name, g.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", am, a1, a3, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", bm, b1, b3, len(vb)), diff, bound, verdict)
		}
	}
	return ok, nil
}

func opposite(better string) string {
	if better == "higher" {
		return "lower"
	}
	return "higher"
}
