package benchjournal

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goBenchOut is `go test -bench` output with the shapes the parser meets:
// -count repetitions, allocation columns, a custom metric, a name without
// the -GOMAXPROCS suffix, and the header and trailer lines.
const goBenchOut = `goos: linux
goarch: amd64
pkg: mvcom
cpu: Apple M3
BenchmarkSESolveSize/I=50-8         	      30	    512345 ns/op	  123456 B/op	     230 allocs/op
BenchmarkSESolveSize/I=50-8         	      30	    498765 ns/op	  123456 B/op	     230 allocs/op
BenchmarkSESolveSize/I=200-8        	      30	   3891097 ns/op	 1842962 B/op	    2323 allocs/op
BenchmarkAblationBeta/beta=2-8      	     100	    812345 ns/op	       190102.5 utility
BenchmarkNoSuffix 	 10 	 111 ns/op
PASS
ok  	mvcom	12.345s
`

func TestParseGoBench(t *testing.T) {
	benches, err := ParseGoBench(strings.NewReader(goBenchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(benches))
	}
	byName := map[string]Benchmark{}
	for _, b := range benches {
		byName[b.Name] = b
	}

	b50, ok := byName["BenchmarkSESolveSize/I=50"]
	if !ok {
		t.Fatalf("I=50 missing (procs suffix not stripped?): %v", byName)
	}
	if len(b50.Samples) != 2 || b50.NsPerOp.Count != 2 {
		t.Fatalf("I=50 samples = %d, want 2", len(b50.Samples))
	}
	if want := (512345.0 + 498765.0) / 2; math.Abs(b50.NsPerOp.Median-want) > 1e-9 {
		t.Fatalf("I=50 median = %v, want %v", b50.NsPerOp.Median, want)
	}
	if b50.AllocsPerOp == nil || b50.AllocsPerOp.Median != 230 {
		t.Fatalf("I=50 allocs = %+v, want 230", b50.AllocsPerOp)
	}

	beta := byName["BenchmarkAblationBeta/beta=2"]
	if beta.Metrics["utility"].Median != 190102.5 {
		t.Fatalf("custom metric lost: %+v", beta.Metrics)
	}
	if beta.AllocsPerOp != nil {
		t.Fatalf("allocs stat journaled for a benchmark that never printed allocs/op: %+v", beta.AllocsPerOp)
	}
	if _, ok := byName["BenchmarkNoSuffix"]; !ok {
		t.Fatal("suffix-free benchmark name mangled")
	}

	// Non-finite values cannot be journaled: the parser refuses them and
	// names the line, instead of Save failing later without either.
	for _, line := range []string{
		"BenchmarkX-8 \t 10 \t 111 ns/op \t NaN utility",
		"BenchmarkX-8 \t 10 \t +Inf ns/op",
	} {
		if _, err := ParseGoBench(strings.NewReader(line)); err == nil ||
			!strings.Contains(err.Error(), "bad value") || !strings.Contains(err.Error(), "BenchmarkX-8") {
			t.Errorf("%q: err = %v, want a bad-value error naming the line", line, err)
		}
	}
}

// FuzzParseGoBench checks the parser never panics and that whatever it
// accepts survives Save and Load with the same names and sample counts.
func FuzzParseGoBench(f *testing.F) {
	f.Add(goBenchOut)
	f.Add("BenchmarkX-8 \t 10 \t 111 ns/op \t NaN utility\n")
	f.Add(strings.Repeat("BenchmarkX-8 \t 10 \t 111 ns/op \t -1e308 x\n", 2) +
		strings.Repeat("BenchmarkX-8 \t 10 \t 111 ns/op \t 1e308 x\n", 3))
	f.Add("Benchmark\xff-8 \t 10 \t 111 ns/op\n")
	f.Fuzz(func(t *testing.T, text string) {
		benches, err := ParseGoBench(strings.NewReader(text))
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "j.json")
		if err := (&Journal{Benchmarks: benches}).Save(path); err != nil {
			t.Fatalf("parsed journal does not save: %v", err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("saved journal does not load: %v", err)
		}
		if len(got.Benchmarks) != len(benches) {
			t.Fatalf("%d benchmarks loaded, %d parsed", len(got.Benchmarks), len(benches))
		}
		for i, b := range benches {
			g := got.Benchmarks[i]
			if g.Name != b.Name || len(g.Samples) != len(b.Samples) {
				t.Fatalf("loaded %q with %d samples, parsed %q with %d",
					g.Name, len(g.Samples), b.Name, len(b.Samples))
			}
		}
	})
}

func TestNewStat(t *testing.T) {
	s := NewStat([]float64{5, 1, 3, 2, 4})
	if s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Count != 5 {
		t.Fatalf("stat = %+v", s)
	}
	if s.IQR != 2 { // q75=4, q25=2 on n=5 exact positions
		t.Fatalf("IQR = %v, want 2", s.IQR)
	}
	if one := NewStat([]float64{7}); one.Median != 7 || one.IQR != 0 {
		t.Fatalf("single-sample stat = %+v", one)
	}
	if zero := NewStat(nil); zero.Count != 0 {
		t.Fatalf("empty stat = %+v", zero)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_MVCOM.json")
	// A zero allocation count is a baseline the differ gates on, so a
	// benchmark that prints "0 allocs/op" must journal the stat.
	spanOff, err := ParseGoBench(strings.NewReader(
		"BenchmarkSpanOff-2 \t 200000 \t 5.1 ns/op \t 0 B/op \t 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	j := &Journal{
		Env: CurrentEnv(),
		Benchmarks: append(spanOff,
			Summarize("BenchmarkZ", []Sample{{N: 1, NsPerOp: 2}}),
			Summarize("BenchmarkA", []Sample{{N: 1, NsPerOp: 1}}),
		),
		Convergence: &Convergence{K: 12, DTV: 0.06},
	}
	if err := j.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version = %d", got.SchemaVersion)
	}
	// Save sorts benchmarks for stable committed diffs.
	var names []string
	for _, b := range got.Benchmarks {
		names = append(names, b.Name)
	}
	if strings.Join(names, " ") != "BenchmarkA BenchmarkSpanOff BenchmarkZ" {
		t.Fatalf("benchmarks not sorted: %v", names)
	}
	if a := got.Find("BenchmarkSpanOff").AllocsPerOp; a == nil || a.Median != 0 || a.Count != 1 {
		t.Fatalf("zero-alloc stat lost in the round trip: %+v", a)
	}
	if got.Convergence == nil || got.Convergence.DTV != 0.06 {
		t.Fatalf("convergence record lost: %+v", got.Convergence)
	}

	// A future schema version must be rejected, not misread.
	raw, _ := os.ReadFile(path)
	bad := strings.Replace(string(raw), `"schemaVersion": 1`, `"schemaVersion": 99`, 1)
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); err == nil || !strings.Contains(err.Error(), "schema version 99") {
		t.Fatalf("future schema accepted: %v", err)
	}
}

// Deterministic "noise": multipliers within ±3% of 1, the jitter a
// healthy CI runner shows across -count repetitions.
var (
	baseJitter     = []float64{1.000, 0.985, 1.012, 0.991, 1.021}
	resampleJitter = []float64{1.008, 0.979, 1.017, 1.002, 0.988}
)

// timed summarizes one sample per jitter multiplier around 1ms/op,
// scaled by slowdown; allocs/op is reported when allocsPerOp is non-nil.
func timed(name string, jitter []float64, slowdown float64, allocsPerOp *float64) Benchmark {
	samples := make([]Sample, len(jitter))
	for i, m := range jitter {
		samples[i] = Sample{N: 100, NsPerOp: 1e6 * m * slowdown, BytesPerOp: 4096, AllocsPerOp: allocsPerOp}
	}
	return Summarize(name, samples)
}

// overhead summarizes one sample per paired OverheadUnit ratio.
func overhead(name string, ratios ...float64) Benchmark {
	samples := make([]Sample, len(ratios))
	for i, r := range ratios {
		samples[i] = Sample{N: 100, NsPerOp: 2e6, Metrics: map[string]float64{OverheadUnit: r}}
	}
	return Summarize(name, samples)
}

func allocs(v float64) *float64 { return &v }

func TestDiff(t *testing.T) {
	env := Env{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8}
	otherEnv := env
	otherEnv.NumCPU, otherEnv.GOMAXPROCS = 4, 4
	journal := func(env Env, bs ...Benchmark) *Journal {
		return &Journal{SchemaVersion: SchemaVersion, Env: env, Benchmarks: bs}
	}

	const solve, rounds, obs = "BenchmarkSESolveSize/I=200", "BenchmarkSERounds", "BenchmarkSESolveObs"
	base := journal(env, timed(solve, baseJitter, 1, allocs(2300)))
	zeroAllocs := journal(env, timed(rounds, baseJitter, 1, allocs(0)))
	gatedOverhead := journal(env, overhead(obs, 1.01, 1.02, 1.01))

	tests := []struct {
		name      string
		old, new  *Journal
		regressed bool
		// want lists findings that must appear, matched on Benchmark,
		// Metric and Severity.
		want []Finding
	}{
		{
			name: "injected 20% slowdown", old: base,
			new:       journal(env, timed(solve, resampleJitter, 1.20, allocs(2300))),
			regressed: true,
			want:      []Finding{{Benchmark: solve, Metric: "ns/op", Severity: SevRegression}},
		},
		{
			name: "resample noise", old: base,
			new: journal(env, timed(solve, resampleJitter, 1, allocs(2300))),
		},
		{name: "self diff", old: base, new: base},
		{
			name: "cross-environment slowdown only warns", old: base,
			new:  journal(otherEnv, timed(solve, resampleJitter, 1.20, allocs(2300))),
			want: []Finding{{Benchmark: solve, Metric: "ns/op", Severity: SevWarning}},
		},
		{
			name: "cross-environment alloc growth", old: base,
			new:       journal(otherEnv, timed(solve, resampleJitter, 1, allocs(2300*1.10))),
			regressed: true,
			want:      []Finding{{Benchmark: solve, Metric: "allocs/op", Severity: SevRegression}},
		},
		{
			name: "alloc growth from zero", old: zeroAllocs,
			new:       journal(env, timed(rounds, resampleJitter, 1, allocs(1))),
			regressed: true,
			want:      []Finding{{Benchmark: rounds, Metric: "allocs/op", Severity: SevRegression}},
		},
		{
			name: "zero allocs stay zero", old: zeroAllocs,
			new: journal(otherEnv, timed(rounds, resampleJitter, 1, allocs(0))),
		},
		{
			// The ceiling ignores the baseline, even one above it.
			name:      "overhead best sample 1.05 across environments",
			old:       journal(env, overhead(obs, 1.10, 1.12, 1.11)),
			new:       journal(otherEnv, overhead(obs, 1.07, 1.05, 1.06)),
			regressed: true,
			want:      []Finding{{Benchmark: obs, Metric: OverheadUnit, Severity: SevRegression}},
		},
		{
			name: "overhead best sample 1.02", old: gatedOverhead,
			new: journal(otherEnv, overhead(obs, 1.06, 1.02, 1.04)),
		},
		{
			name: "gated benchmark missing", old: zeroAllocs, new: journal(env),
			regressed: true,
			want:      []Finding{{Benchmark: rounds, Metric: "presence", Severity: SevRegression}},
		},
		{
			name: "gated allocs stat no longer reported", old: zeroAllocs,
			new:       journal(env, timed(rounds, resampleJitter, 1, nil)),
			regressed: true,
			want:      []Finding{{Benchmark: rounds, Metric: "allocs/op", Severity: SevRegression}},
		},
		{
			name: "gated overhead no longer reported", old: gatedOverhead,
			new:       journal(env, timed(obs, resampleJitter, 1, nil)),
			regressed: true,
			want:      []Finding{{Benchmark: obs, Metric: OverheadUnit, Severity: SevRegression}},
		},
		{
			name: "ungated benchmark missing only warns",
			old:  journal(env, timed("BenchmarkGone", baseJitter, 1, nil)),
			new:  journal(env, timed("BenchmarkFresh", baseJitter, 1, nil)),
			want: []Finding{
				{Benchmark: "BenchmarkGone", Metric: "presence", Severity: SevWarning},
				{Benchmark: "BenchmarkFresh", Metric: "presence", Severity: SevInfo},
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			findings, regressed := Diff(tc.old, tc.new, Options{})
			if regressed != tc.regressed {
				t.Fatalf("regressed = %v, want %v; findings %v", regressed, tc.regressed, findings)
			}
			for _, w := range tc.want {
				found := false
				for _, f := range findings {
					found = found || f.Benchmark == w.Benchmark && f.Metric == w.Metric && f.Severity == w.Severity
				}
				if !found {
					t.Errorf("no %s %s %s finding in %v", w.Severity, w.Benchmark, w.Metric, findings)
				}
			}
		})
	}
}
