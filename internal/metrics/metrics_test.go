package metrics

import (
	"math"
	"testing"

	"mvcom/internal/core"
)

func tracePoints(pairs ...float64) []core.TracePoint {
	out := make([]core.TracePoint, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, core.TracePoint{Iteration: int(pairs[i]), Utility: pairs[i+1]})
	}
	return out
}

func TestResample(t *testing.T) {
	tr := tracePoints(5, 10, 20, 40, 100, 90)
	got, err := Resample(tr, []int{0, 5, 10, 20, 50, 100, 200})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 10, 10, 40, 40, 90, 90}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grid point %d: got %v want %v (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	if _, err := Resample(nil, []int{1}); err != ErrNoTrace {
		t.Fatal("want ErrNoTrace")
	}
	if _, err := Resample(tracePoints(1, 1), []int{5, 2}); err == nil {
		t.Fatal("unsorted grid accepted")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(100, 5)
	want := []int{0, 25, 50, 75, 100}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("grid %v", g)
		}
	}
	if g := Grid(10, 1); len(g) != 2 {
		t.Fatalf("points clamp failed: %v", g)
	}
	if g := Grid(0, 3); g[len(g)-1] != 1 {
		t.Fatalf("maxIter clamp failed: %v", g)
	}
}

func testInstance() core.Instance {
	in := core.Instance{
		Sizes:     []int{100, 200, 300},
		Latencies: []float64{700, 900, 1000},
		Alpha:     1.5,
		Capacity:  450,
		Nmin:      1,
	}
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

func TestValuableDegree(t *testing.T) {
	in := testInstance()
	sol := core.NewSolution(&in, []bool{true, true, false})
	got := ValuableDegree(&in, sol)
	want := 100.0/300.0 + 200.0/100.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("VD %v, want %v", got, want)
	}
}

func TestOutcome(t *testing.T) {
	in := testInstance()
	sol := core.NewSolution(&in, []bool{true, false, true})
	o := Outcome(3, &in, sol)
	if o.Epoch != 3 || o.PermittedTxs != 400 || o.CommitteeCount != 2 {
		t.Fatalf("outcome %+v", o)
	}
	if o.ArrivedTxs != 600 {
		t.Fatalf("arrived %d", o.ArrivedTxs)
	}
	if math.Abs(o.CumulativeAge-300) > 1e-9 { // ages 300 + 0
		t.Fatalf("age %v", o.CumulativeAge)
	}
	if o.DDL != 1000 {
		t.Fatalf("ddl %v", o.DDL)
	}
}

func TestOutcomeZeroDivisionGuards(t *testing.T) {
	// An epoch where nothing arrived has no permit rate: it must not
	// divide by zero, and it must not count toward the mean.
	agg := AggregateOutcomes([]EpochOutcome{{PermittedTxs: 5}})
	if agg.MeanPermitRate != 0 {
		t.Fatalf("permit rate %v over an epoch with no arrivals, want 0", agg.MeanPermitRate)
	}
}

func TestAggregateOutcomes(t *testing.T) {
	in := testInstance()
	o1 := Outcome(1, &in, core.NewSolution(&in, []bool{true, true, false}))
	o2 := Outcome(2, &in, core.NewSolution(&in, []bool{false, false, true}))
	agg := AggregateOutcomes([]EpochOutcome{o1, o2})
	if agg.Epochs != 2 {
		t.Fatalf("epochs %d", agg.Epochs)
	}
	if agg.TotalTxs != 300+300 {
		t.Fatalf("total txs %d", agg.TotalTxs)
	}
	wantRate := (300.0/600.0 + 300.0/600.0) / 2
	if math.Abs(agg.MeanPermitRate-wantRate) > 1e-9 {
		t.Fatalf("permit rate %v", agg.MeanPermitRate)
	}
	empty := AggregateOutcomes(nil)
	if empty.Epochs != 0 || empty.MeanPermitRate != 0 {
		t.Fatal("empty aggregate wrong")
	}
}
