package mvcom_test

import (
	"bytes"
	"strings"
	"testing"

	"mvcom"
	"mvcom/internal/experiments"
	"mvcom/internal/txgen"
)

func TestPublicQuickstartFlow(t *testing.T) {
	in := mvcom.Instance{
		Sizes:     []int{1200, 900, 2100, 1500},
		Latencies: []float64{812, 930, 1105, 988},
		Alpha:     1.5,
		Capacity:  4000,
		Nmin:      2,
	}
	sched := mvcom.NewScheduler(mvcom.SchedulerConfig{Seed: 1})
	sol, trace, err := sched.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if !in.Feasible(sol.Selected) {
		t.Fatal("public API returned infeasible solution")
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
}

func TestPublicOnlineEvents(t *testing.T) {
	in, err := experiments.PaperInstance(2, 20, 16000, 1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sched := mvcom.NewScheduler(mvcom.SchedulerConfig{Seed: 2, MaxIters: 800})
	events := []mvcom.Event{
		{AtIteration: 100, Kind: mvcom.EventJoin, Index: -1, Size: 1500, Latency: in.DDL - 1},
	}
	sol, _, err := sched.SolveOnline(in.Clone(), events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Selected) != 21 {
		t.Fatalf("selection length %d", len(sol.Selected))
	}
}

func TestPublicEngineStepping(t *testing.T) {
	in, err := experiments.PaperInstance(3, 20, 16000, 1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mvcom.NewEngine(in, mvcom.SchedulerConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		eng.StepN(1)
	}
	sol, err := eng.Best()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Count == 0 {
		t.Fatal("engine found nothing after 400 steps")
	}
	if eng.Iterations() != 400 {
		t.Fatalf("iterations %d", eng.Iterations())
	}
}

func TestPublicPipeline(t *testing.T) {
	p, err := mvcom.NewPipeline(mvcom.PipelineConfig{
		Committees:    8,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: 32, MeanTxs: 500, MinTxs: 50, MaxTxs: 2000},
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	res, err := p.RunEpoch(mvcom.SolverScheduler{
		Solver: mvcom.NewScheduler(mvcom.SchedulerConfig{Seed: 4, MaxIters: 500}),
	}, 1.5, capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalBlock == nil {
		t.Fatal("no final block")
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBaselinesImplementSolver(t *testing.T) {
	var solvers = []mvcom.Solver{
		mvcom.NewScheduler(mvcom.SchedulerConfig{Seed: 1, MaxIters: 300}),
		mvcom.SimulatedAnnealing{Seed: 1, Iterations: 500},
		mvcom.DynamicProgramming{},
		mvcom.WhaleOptimization{Seed: 1, Iterations: 40},
		mvcom.Greedy{},
	}
	in, err := experiments.PaperInstance(5, 16, 12000, 1.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range solvers {
		sol, _, err := s.Solve(in.Clone())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !in.Feasible(sol.Selected) {
			t.Fatalf("%s: infeasible", s.Name())
		}
	}
}

func TestPublicFigureRegeneration(t *testing.T) {
	ids := mvcom.Figures()
	if len(ids) != 11 {
		t.Fatalf("figures %v", ids)
	}
	res, err := mvcom.ReproduceFigure("9a", mvcom.FigureOptions{Seed: 1, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mvcom.WriteFigureTSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SE\t") {
		t.Fatalf("tsv output missing series: %q", buf.String()[:80])
	}
}

func TestPublicTheoryHelpers(t *testing.T) {
	bnds, err := mvcom.MixingTimeBounds(50, 2, 0, 1000, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if bnds.LogLower >= bnds.LogUpper {
		t.Fatal("bounds out of order")
	}
	p := mvcom.PerturbationBound(500)
	if p.TVDistance != 0.5 || p.UtilityBound != 500 {
		t.Fatalf("perturbation %+v", p)
	}
	loss, err := mvcom.OptimalityLossBound(2, 100)
	if err != nil || loss <= 0 {
		t.Fatalf("loss %v err %v", loss, err)
	}
}
