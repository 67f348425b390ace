package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mvcom/internal/tracemerge"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is the highest percentile with at least ten samples beyond
// its nearest rank.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n            int
		limit        float64
		wantQ, wantV float64
	}{
		{10000, 1, 0.999, 9990},
		{10000, 0.99, 0.99, 9900}, // capped at the requested percentile
		{1000, 1, 0.99, 990},      // exactly ten beyond p99, one beyond p99.9
		{999, 1, 0.9, 900},        // nine beyond p99
		{100, 1, 0.9, 90},
		{20, 1, 0.5, 10},
		{19, 1, 0.5, 10}, // nothing supported: the median
		{0, 1, 0.5, 0},
	} {
		q, v := tail(ramp(c.n), c.limit)
		if q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d limit=%v: got %s=%v, want %s=%v", c.n, c.limit, pname(q), v, pname(c.wantQ), c.wantV)
		}
	}
	for q, want := range map[float64]string{0.999: "p99.9", 0.99: "p99", 0.9: "p90", 0.5: "p50"} {
		if got := pname(q); got != want {
			t.Errorf("pname(%v) = %q, want %q", q, got, want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4) and
// statistics.median, which the acceptance spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ramp(10), [3]float64{2.75, 5.5, 8.25}},
		{ramp(4), [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// One part far off the others does not move the median over parts.
func TestMedianOfParts(t *testing.T) {
	xs := []float64{1, 3, 2, 4, 3, 5, 4, 6, 70, 90}
	part := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	if got := medianOfParts(xs, part, mean); got != 4 {
		t.Errorf("median of part means = %v, want 4", got)
	}
	// Parts without values are left out.
	if got := medianOfParts([]float64{1, 9, 5}, []int{0, 2, 4}, mean); got != 5 {
		t.Errorf("median over three filled parts = %v, want 5", got)
	}
}

// Each epoch takes as many requests as its flush took transactions, in
// send order, whenever the acks arrive; refused requests take no epoch.
func TestAssignEpochs(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	req := func(sent, ack float64, o outcome) reqRecord {
		return reqRecord{due: ms(sent), sent: ms(sent), ack: ms(ack), outcome: o}
	}
	// Two generators' records, each in send order. Flush 0 returned at
	// 2.1 ms with the requests sent at 0, 0.5 and 1 ms; the one sent at
	// 1 ms triggered it and was acked only after it returned.
	recs := []reqRecord{
		req(0, 0.3, accepted), req(1, 2.5, accepted), req(2, 2.3, refused), req(3, 3.2, accepted),
		req(0.5, 0.8, accepted), req(1.5, 3.0, accepted),
	}
	eps := []epochRecord{{flush: ms(2.1), flushedTxs: 3 * batchTxs}, {flush: ms(3.5), flushedTxs: 2 * batchTxs}}
	got, err := assignEpochs(recs, eps)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, -1, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("epochs %v, want %v", got, want)
	}
	for _, bad := range [][]int64{{3 * batchTxs}, {3 * batchTxs, 3 * batchTxs}, {250, 250}} {
		eps := make([]epochRecord, len(bad))
		for i, n := range bad {
			eps[i].flushedTxs = n
		}
		if _, err := assignEpochs(recs, eps); err == nil {
			t.Errorf("flushes of %v transactions for 5 accepted requests were not refused", bad)
		}
	}
}

func TestRegressed(t *testing.T) {
	lower := gate{metricSpec{Better: "lower", Bound: 0.1}, false}
	higher := gate{metricSpec{Better: "higher", Bound: 0.1}, false}
	abs := gate{metricSpec{Better: "lower", Bound: 0.01}, true}
	for _, c := range []struct {
		name      string
		g         gate
		base, cur float64
		want      bool
	}{
		{"relative at the bound", lower, 100, 110, false},
		{"relative past the bound", lower, 100, 110.5, true},
		{"relative better", lower, 100, 50, false},
		{"higher within", higher, 100, 91, false},
		{"higher past", higher, 100, 89, true},
		{"relative on a zero baseline", lower, 0, 0.001, true},
		{"absolute on a zero baseline, within", abs, 0, 0.009, false},
		{"absolute on a zero baseline, past", abs, 0, 0.011, true},
		{"negative utility within |base|", higher, -1000, -1099, false},
		{"negative utility past |base|", higher, -1000, -1101, true},
		{"negative utility better", higher, -1000, -500, false},
	} {
		if got := regressed(c.g, c.base, c.cur); got != c.want {
			t.Errorf("%s: regressed(%v → %v) = %v, want %v", c.name, c.base, c.cur, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tps []float64, failed float64) string {
		var b bytes.Buffer
		for i, v := range tps {
			line, _ := json.Marshal(record{Workload: "http-steady", Seed: int64(i), Metrics: map[string]value{
				"committed_tps": {v, "tx/s"},
				"failed_frac":   {failed, "ratio"},
			}})
			b.Write(append(line, '\n'))
		}
		// Traced windows are not compared.
		b.WriteString(`{"workload":"http-steady","trace":1,"metrics":{"committed_tps":{"value":1,"unit":"tx/s"}}}` + "\n")
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	sp := &spec{EndToEnd: []metricSpec{{Name: "committed_tps", Unit: "tx/s", Better: "higher", Bound: 0.1}}}
	base := write("a.jsonl", []float64{100, 101, 99, 100}, 0)
	for _, c := range []struct {
		name   string
		tps    []float64
		failed float64
		want   bool
	}{
		{"same", []float64{99, 100, 102, 100}, 0, true},
		{"slower within the bound", []float64{92, 91, 93}, 0, true},
		{"slower past the bound", []float64{80, 82, 81}, 0, false},
		{"faster", []float64{150, 151}, 0, true},
		{"refusing", []float64{100, 100}, 0.02, false},
	} {
		var out bytes.Buffer
		ok, err := compareRuns(sp, base, write(c.name+".jsonl", c.tps, c.failed), &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("%s: compare ok = %v, want %v\n%s", c.name, ok, c.want, out.String())
		}
	}
}

// The same seed must give byte-identical requests, and another seed
// other requests.
func TestInputsDeterministic(t *testing.T) {
	for _, f := range []front{frontHTTP, frontTCP, frontDirect} {
		a, err := buildInputs(7, f)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildInputs(7, f)
		c, _ := buildInputs(8, f)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("front %d: seed 7 built different inputs twice", f)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("front %d: seeds 7 and 8 built the same inputs", f)
		}
		for _, in := range a {
			if len(in.wire)+len(in.batches) == 0 {
				t.Errorf("front %d: generator %s has no requests", f, in.source)
			}
		}
	}
}

func TestValidateRejectsOversizedShards(t *testing.T) {
	c := serveDefaults
	c.committees, c.capacity = 24, 2000 // 65536/24 = 2731-tx shards
	if err := c.validate(); err == nil {
		t.Error("a plane whose full queue overflows every shard was accepted")
	}
	for _, w := range workloads {
		if err := w.plane.validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must describe this program: its workloads in order,
// and metrics whose names, units and bounds fit the benchmark format.
func TestSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q does not match %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	maxBound := 0.0
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("malformed or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound {
				t.Errorf("setup_s must be in s, lower-better, with the largest bound: %+v", m)
			}
			return
		}
	}
	t.Error("no setup_s metric")
}

// TestSmoke runs every workload for a 1 s window after the usual
// warmup, untraced and traced, with every correctness check, and checks
// that mvcom-trace's reader accepts each trace dump. Under the race
// detector the plane cannot keep up with the offered rates, so the two
// checks that compare against them only log.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			o := runOpts{seed: 1, window: time.Second, traced: true, outDir: dir}
			ok, err := runWorkload(w, o, sp, &out)
			if err != nil {
				t.Fatalf("run failed: %v\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, l := range lines {
				problem, found := strings.CutPrefix(strings.TrimSpace(l), "CHECK FAILED: ")
				switch {
				case !found:
				case raceEnabled && (strings.HasPrefix(problem, "committed_tps ") || strings.HasPrefix(problem, "failed_frac ")):
					t.Log("under -race:", problem)
				default:
					t.Error(problem)
				}
			}
			var last struct {
				Correct   bool                       `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line: %v", err)
			}
			if last.Correct != ok || (!ok && !raceEnabled) || last.Attempted < 1 || len(last.Metrics) != len(sp.PerLayer) {
				t.Errorf("last line: %s", lines[len(lines)-1])
			}
			d, err := tracemerge.Load(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			m := tracemerge.Merge([]*tracemerge.Dump{d})
			if m.Timeline.Spans == 0 || len(m.Timeline.Orphans) > 0 {
				t.Errorf("trace dump: %d spans, %d orphans", m.Timeline.Spans, len(m.Timeline.Orphans))
			}
		})
	}
}
