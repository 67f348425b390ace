package experiments

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mvcom/internal/randx"
	"mvcom/internal/stats"
)

// smallOpts shrinks every figure to CI size.
func smallOpts() Options { return Options{Seed: 7, Scale: 0.05} }

func TestOptionsValidation(t *testing.T) {
	if _, err := Run("8", Options{Scale: -1}); !errors.Is(err, ErrBadScale) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run("8", Options{Scale: 2}); !errors.Is(err, ErrBadScale) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run("nope", smallOpts()); !errors.Is(err, ErrUnknownFigure) {
		t.Fatalf("err = %v", err)
	}
}

func TestIDsCoverAllDataFigures(t *testing.T) {
	ids := IDs()
	want := []string{"10", "11", "12", "13", "14", "2a", "2b", "8", "9a", "9b", "ext1"}
	if len(ids) != len(want) {
		t.Fatalf("ids %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids %v, want %v", ids, want)
		}
	}
}

func TestRunAcceptsFigPrefix(t *testing.T) {
	if _, err := Run("fig9a", smallOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestPaperInstanceShape(t *testing.T) {
	rng := randx.New(1)
	in := paperInstance(rng, 40, 40000, 1.5, 0.5)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nmin counts against the arrived (80%) set: 0.5 × 32 = 16.
	if in.NumShards() != 40 || in.Nmin != 16 || in.Capacity != 40000 {
		t.Fatalf("instance %+v", in)
	}
	// The DDL sits at the 80% arrival percentile, so ~20% straggle.
	arrived := len(in.Arrived())
	if arrived < 30 || arrived > 34 {
		t.Fatalf("arrived %d of 40, want ~32", arrived)
	}
	total := 0
	for _, s := range in.Sizes {
		total += s
	}
	// Total load ≈ 2× capacity (the binding-knapsack design point).
	if ratio := float64(total) / 40000; ratio < 1.4 || ratio > 2.8 {
		t.Fatalf("load factor %.2f, want ~2", ratio)
	}
	for _, l := range in.Latencies {
		if l <= 0 {
			t.Fatalf("latency %v", l)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	res, err := Fig2a(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series %d", len(res.Series))
	}
	formation, consensus := res.Series[0], res.Series[1]
	// Formation dominates consensus at every size (Fig. 2a's headline).
	for i := range formation.Y {
		if formation.Y[i] <= consensus.Y[i] {
			t.Fatalf("consensus above formation at x=%v", formation.X[i])
		}
	}
}

func TestFig2bCDFMonotone(t *testing.T) {
	res, err := Fig2b(Options{Seed: 3, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] || s.X[i] < s.X[i-1] {
				t.Fatalf("series %s not monotone", s.Label)
			}
		}
		if len(s.Y) == 0 || math.Abs(s.Y[len(s.Y)-1]-1) > 1e-9 {
			t.Fatalf("series %s does not reach 1", s.Label)
		}
	}
}

func TestFig8GammaOrdering(t *testing.T) {
	res, err := Fig8(Options{Seed: 5, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 6 {
		t.Fatalf("series %d", len(res.Series))
	}
	// Γ=25 final utility must be at least Γ=1's (more explorers cannot
	// hurt the best-of race).
	g1 := res.Series[0].Y[len(res.Series[0].Y)-1]
	g25 := res.Series[5].Y[len(res.Series[5].Y)-1]
	if g25 < g1 {
		t.Fatalf("Γ=25 converged to %v below Γ=1's %v", g25, g1)
	}
	// Curves are monotone best-so-far traces.
	for _, s := range res.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Fatalf("%s: utility regressed", s.Label)
			}
		}
	}
}

func TestFig9aDipAndRecovery(t *testing.T) {
	res, err := Fig9a(Options{Seed: 11, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	if len(s.Y) < 3 {
		t.Fatalf("trace too short: %d", len(s.Y))
	}
	// The final utility is positive and the trace contains at least one
	// decrease (the leave-event dip).
	dip := false
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			dip = true
		}
	}
	if !dip {
		t.Log("no visible dip this seed — leave may not have hit the best solution")
	}
	if s.Y[len(s.Y)-1] <= 0 {
		t.Fatalf("final utility %v", s.Y[len(s.Y)-1])
	}
}

func TestFig9bJoinsGrowUtility(t *testing.T) {
	res, err := Fig9b(Options{Seed: 11, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series[0]
	first, last := s.Y[0], s.Y[len(s.Y)-1]
	if last < first {
		t.Fatalf("utility shrank across joins: %v -> %v", first, last)
	}
}

func TestFig10SEHighestValuableDegree(t *testing.T) {
	res, err := Fig10(Options{Seed: 2, Scale: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	vd := make(map[string]float64)
	for _, s := range res.Series {
		vd[s.Label] = s.Y[0]
	}
	if len(vd) != 4 {
		t.Fatalf("algorithms %v", vd)
	}
	for name, v := range vd {
		if v <= 0 {
			t.Fatalf("%s valuable degree %v", name, v)
		}
	}
	// The headline Fig. 10 claim: SE's valuable degree tops the baselines.
	for _, name := range []string{"SA", "DP", "WOA"} {
		if vd["SE"] < vd[name]*0.95 {
			t.Fatalf("SE VD %.2f clearly below %s's %.2f", vd["SE"], name, vd[name])
		}
	}
}

func TestFig11SEWins(t *testing.T) {
	res, err := Fig11(Options{Seed: 2, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 12 { // 3 sizes × 4 algorithms
		t.Fatalf("series %d", len(res.Series))
	}
	finals := make(map[string]float64)
	for _, s := range res.Series {
		finals[s.Label] = s.Y[len(s.Y)-1]
	}
	// At CI scale DP is nearly exact, so allow ties within 3%; the
	// paper-scale gap is validated by EXPERIMENTS.md runs.
	for _, size := range []string{"|I|=500", "|I|=800", "|I|=1000"} {
		se := finals[size+"/SE"]
		for _, b := range []string{"SA", "DP", "WOA"} {
			if se < 0.97*finals[size+"/"+b] {
				t.Fatalf("%s: SE %.0f below %s %.0f", size, se, b, finals[size+"/"+b])
			}
		}
	}
}

func TestFig12AlphaGrowsUtility(t *testing.T) {
	res, err := Fig12(Options{Seed: 2, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	finals := make(map[string]float64)
	for _, s := range res.Series {
		finals[s.Label] = s.Y[len(s.Y)-1]
	}
	if finals["α=10/SE"] <= finals["α=1.5/SE"] {
		t.Fatalf("alpha=10 utility %.0f not above alpha=1.5's %.0f",
			finals["α=10/SE"], finals["α=1.5/SE"])
	}
	for _, alpha := range []string{"α=1.5", "α=5", "α=10"} {
		se := finals[alpha+"/SE"]
		for _, b := range []string{"SA", "DP", "WOA"} {
			if se < 0.97*finals[alpha+"/"+b] {
				t.Fatalf("%s: SE %.0f below %s %.0f", alpha, se, b, finals[alpha+"/"+b])
			}
		}
	}
}

func TestFig13BoxesOrdered(t *testing.T) {
	res, err := Fig13(Options{Seed: 2, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 12 {
		t.Fatalf("series %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Y) != 5 {
			t.Fatalf("%s: %d box stats", s.Label, len(s.Y))
		}
		for i := 1; i < 5; i++ {
			if s.Y[i] < s.Y[i-1]-1e-9 {
				t.Fatalf("%s: box stats out of order %v", s.Label, s.Y)
			}
		}
	}
}

func TestFig14SELeadsOnline(t *testing.T) {
	res, err := Fig14(Options{Seed: 2, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	finals := make(map[string][]float64)
	for _, s := range res.Series {
		finals[s.Label] = s.Y
	}
	if len(finals["SE"]) != 3 {
		t.Fatalf("SE series %v", finals["SE"])
	}
	// Utilities grow with alpha for every algorithm.
	for name, ys := range finals {
		if ys[2] <= ys[0] {
			t.Fatalf("%s: utility did not grow with alpha: %v", name, ys)
		}
	}
}

func TestWriteTSV(t *testing.T) {
	res := FigureResult{
		ID: "x", Title: "t", XLabel: "a", YLabel: "b",
		Notes:  []string{"note"},
		Series: []Series{{Label: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "s\t1\t3") || !strings.Contains(out, "s\t2\t4") {
		t.Fatalf("tsv output %q", out)
	}
	if !strings.Contains(out, "# note") {
		t.Fatal("note missing")
	}
}

func TestPaperInstanceSizeLatencyCorrelated(t *testing.T) {
	// The paper's motivating dilemma requires slow committees to hold
	// large shards; verify the generator couples them.
	rng := randx.New(9)
	in := paperInstance(rng, 400, 400000, 1.5, 0)
	xs := make([]float64, in.NumShards())
	ys := make([]float64, in.NumShards())
	for i := range xs {
		xs[i] = in.Latencies[i]
		ys[i] = float64(in.Sizes[i])
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// A one-variable least-squares fit's R² is the squared Pearson
	// correlation, and its slope carries the sign.
	rho := math.Copysign(math.Sqrt(fit.R2), fit.Slope)
	if rho < 0.3 {
		t.Fatalf("size-latency correlation %.3f, want clearly positive", rho)
	}
}

func TestExtThroughputShape(t *testing.T) {
	res, err := ExtThroughput(Options{Seed: 4, Scale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series %d", len(res.Series))
	}
	byName := make(map[string][]float64)
	for _, s := range res.Series {
		if len(s.Y) != 3 {
			t.Fatalf("%s has %d points", s.Label, len(s.Y))
		}
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s throughput %v", s.Label, y)
			}
		}
		byName[s.Label] = s.Y
	}
	for _, name := range []string{"SE", "Greedy", "AcceptAll"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing scheduler %s", name)
		}
	}
}

// TestCommittedFiguresReproduce regenerates the figures that take under
// a second at scale 1, seed 1 (mvcom-bench -fig all -scale 1 -seed 1)
// and compares each byte for byte with its results/fig<id>.tsv, so a
// change that moves one of those figures must commit the new file.
func TestCommittedFiguresReproduce(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("results/ holds amd64 output; on %s Go may fuse multiply-adds, which changes the low-order bits", runtime.GOARCH)
	}
	for _, id := range []string{"2a", "2b", "9a", "9b", "12", "14", "ext1"} {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Options{Seed: 1, Scale: 1})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.WriteTSV(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "results", "fig"+id+".tsv")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gotLines), len(wantLines)) {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gotLines[i], wantLines[i])
				}
			}
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%s: regenerated %d lines, committed %d", path, len(gotLines), len(wantLines))
			}
		})
	}
}
