package benchjournal

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
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
	benches, err := ParseGoBench(strings.NewReader(out))
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
	if _, ok := byName["BenchmarkNoSuffix"]; !ok {
		t.Fatal("suffix-free benchmark name mangled")
	}
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

func TestSelfTest(t *testing.T) {
	if err := SelfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_MVCOM.json")
	j := &Journal{
		Env: CurrentEnv(),
		Benchmarks: []Benchmark{
			Summarize("BenchmarkZ", []Sample{{N: 1, NsPerOp: 2}}),
			Summarize("BenchmarkA", []Sample{{N: 1, NsPerOp: 1}}),
		},
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
	if got.Benchmarks[0].Name != "BenchmarkA" || got.Benchmarks[1].Name != "BenchmarkZ" {
		t.Fatalf("benchmarks not sorted: %v, %v", got.Benchmarks[0].Name, got.Benchmarks[1].Name)
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

func TestDiffMissingAndNew(t *testing.T) {
	env := CurrentEnv()
	oldJ := &Journal{Env: env, Benchmarks: []Benchmark{
		Summarize("BenchmarkGone", []Sample{{N: 1, NsPerOp: 100}}),
	}}
	newJ := &Journal{Env: env, Benchmarks: []Benchmark{
		Summarize("BenchmarkFresh", []Sample{{N: 1, NsPerOp: 100}}),
	}}
	findings, regressed := Diff(oldJ, newJ, Options{})
	if regressed {
		t.Fatal("presence changes must not hard-fail the gate")
	}
	var warn, info bool
	for _, f := range findings {
		if f.Benchmark == "BenchmarkGone" && f.Severity == SevWarning {
			warn = true
		}
		if f.Benchmark == "BenchmarkFresh" && f.Severity == SevInfo {
			info = true
		}
	}
	if !warn || !info {
		t.Fatalf("presence findings missing: %v", findings)
	}
}
