package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mvcom/internal/randx"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 8 || s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Fatalf("bad summary %+v", s)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("mean %v", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if !almost(s.Stddev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev %v", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoData {
		t.Fatal("want ErrNoData")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stddev != 0 || s.Mean != 3 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("bad single-point summary %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{25, 20},
		{50, 35},
		{100, 50},
		{90, 46}, // interpolated: rank 3.6 → 40 + 0.6*(50-40)
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, tt.want, 1e-9) {
			t.Fatalf("P%.0f = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrNoData {
		t.Fatal("want ErrNoData")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("want out-of-range error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("want out-of-range error")
	}
	got, err := Percentile([]float64{7}, 32)
	if err != nil || got != 7 {
		t.Fatalf("single sample percentile: %v %v", got, err)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	m, err := Percentile([]float64{9, 1, 5}, 50)
	if err != nil || m != 5 {
		t.Fatalf("odd median %v %v", m, err)
	}
	m, err = Percentile([]float64{4, 1, 3, 2}, 50)
	if err != nil || !almost(m, 2.5, 1e-12) {
		t.Fatalf("even median %v %v", m, err)
	}
}

func TestECDF(t *testing.T) {
	pts := ECDF([]float64{1, 2, 2, 3})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("got %v", pts)
	}
	for i := range pts {
		if pts[i].Value != want[i].Value || !almost(pts[i].Fraction, want[i].Fraction, 1e-12) {
			t.Fatalf("point %d: got %+v want %+v", i, pts[i], want[i])
		}
	}
	if ECDF(nil) != nil {
		t.Fatal("ECDF(nil) should be nil")
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		pts := ECDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		if len(pts) > 0 && !almost(pts[len(pts)-1].Fraction, 1, 1e-12) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 1e-9) || !almost(fit.Intercept, 3, 1e-9) || !almost(fit.R2, 1, 1e-9) {
		t.Fatalf("fit %+v", fit)
	}
}

func TestFitLineNoisy(t *testing.T) {
	r := randx.New(1)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 10 + math.Log(r.LogNormal(0, 5)) // N(0, 5²) noise
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 3, 0.05) {
		t.Fatalf("slope %v", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err != ErrNoData {
		t.Fatal("want ErrNoData")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("want zero-variance error")
	}
}

func TestBox(t *testing.T) {
	b, err := Box([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 9 || b.Median != 5 {
		t.Fatalf("box %+v", b)
	}
	if b.Q1 >= b.Median || b.Q3 <= b.Median {
		t.Fatalf("quartiles out of order %+v", b)
	}
	if _, err := Box(nil); err != ErrNoData {
		t.Fatal("want ErrNoData")
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := Box(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileAgreesWithSortedExtremes(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		p0, err0 := Percentile(xs, 0)
		p100, err100 := Percentile(xs, 100)
		return err0 == nil && err100 == nil &&
			p0 == sorted[0] && p100 == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
