// Package integration_test exercises cross-module flows end-to-end: the
// epoch pipeline feeding the distributed scheduler, and long multi-epoch
// runs with failures and carry-over.
package integration_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/dist"
	"mvcom/internal/epoch"
	"mvcom/internal/faultinject"
	"mvcom/internal/metrics"
	"mvcom/internal/txgen"
)

func pipelineConfig(committees int, seed int64) epoch.Config {
	return epoch.Config{
		Committees:    committees,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: committees * 4, MeanTxs: 800, MinTxs: 100, MaxTxs: 3000},
		Seed:          seed,
	}
}

// distScheduler adapts a distributed SE session into an epoch.Scheduler:
// every epoch's final consensus spins a coordinator plus local workers
// over loopback TCP.
type distScheduler struct {
	workers int
	seed    int64
}

func (d distScheduler) Schedule(in core.Instance) (core.Solution, error) {
	co, err := dist.NewCoordinator("127.0.0.1:0", dist.CoordinatorConfig{
		Instance:      in,
		Workers:       d.workers,
		RunTimeout:    10 * time.Second,
		ReportEvery:   50,
		MaxIterations: 1500,
		StableReports: 10,
		Seed:          d.seed,
	})
	if err != nil {
		return core.Solution{}, err
	}
	defer co.Close()
	var wg sync.WaitGroup
	for g := 0; g < d.workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = dist.Worker{ID: fmt.Sprintf("it-w%d", g)}.Run(co.Addr())
		}()
	}
	sol, _, err := co.Run()
	wg.Wait()
	return sol, err
}

func TestEpochPipelineWithDistributedScheduler(t *testing.T) {
	p, err := epoch.NewPipeline(pipelineConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	res, err := p.RunEpoch(distScheduler{workers: 2, seed: 1}, 1.5, capacity, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Instance.Feasible(res.Solution.Selected) {
		t.Fatal("distributed schedule infeasible")
	}
	if res.FinalBlock == nil || res.FinalBlock.TxTotal != res.Solution.Load {
		t.Fatalf("final block %+v", res.FinalBlock)
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCarryOverBacklogRegimes(t *testing.T) {
	// Fig. 3's carry-over has two regimes. Under-load (capacity covers
	// each epoch's arrivals) the deferred backlog drains; over-load
	// (sustained demand above block capacity) it necessarily grows — a
	// refused committee re-enters with reduced latency, i.e. a *larger*
	// age penalty, so freshness-aware scheduling alone cannot drain an
	// overloaded system.
	run := func(capFrac float64) []int {
		p, err := epoch.NewPipeline(pipelineConfig(10, 3))
		if err != nil {
			t.Fatal(err)
		}
		capacity := int(capFrac * float64(p.Trace().TotalTxs()))
		var backlogs []int
		for e := 0; e < 10; e++ {
			res, err := p.RunEpoch(epoch.SolverScheduler{Solver: baseline.Greedy{}}, 1.5, capacity, 2)
			if err != nil {
				t.Fatal(err)
			}
			backlogs = append(backlogs, len(res.Deferred))
		}
		if err := p.Chain().Verify(); err != nil {
			t.Fatal(err)
		}
		return backlogs
	}
	underLoad := run(1.2)
	if last := underLoad[len(underLoad)-1]; last > 2 {
		t.Fatalf("under-load backlog did not drain: %v", underLoad)
	}
	overLoad := run(0.33)
	if last := overLoad[len(overLoad)-1]; last <= overLoad[2] {
		t.Fatalf("over-load backlog unexpectedly drained: %v", overLoad)
	}
}

func TestFailuresAndCarryOverTogether(t *testing.T) {
	cfg := pipelineConfig(12, 4)
	fi, err := faultinject.Parse(epoch.FaultPointCommittee+":prob=0.15", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultInjector = fi
	p, err := epoch.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 3
	results, err := p.RunEpochs(5, epoch.SolverScheduler{
		Solver: core.NewSE(core.SEConfig{Seed: 4, MaxIters: 800}),
	}, 1.5, capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []metrics.EpochOutcome
	for _, res := range results {
		if !res.Instance.Feasible(res.Solution.Selected) {
			t.Fatalf("epoch %d infeasible", res.Epoch)
		}
		outcomes = append(outcomes, metrics.Outcome(res.Epoch, &res.Instance, res.Solution))
	}
	agg := metrics.AggregateOutcomes(outcomes)
	if agg.TotalTxs == 0 {
		t.Fatal("nothing committed across five epochs")
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSEVersusBaselinesOnPipelineInstances(t *testing.T) {
	// On instances produced by the real pipeline (not the synthetic
	// generator), SE must stay competitive with every baseline.
	p, err := epoch.NewPipeline(pipelineConfig(14, 5))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 3
	res, err := p.RunEpoch(epoch.AcceptAll{}, 1.5, capacity, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Instance
	seSol, _, err := core.NewSE(core.SEConfig{Seed: 5, Gamma: 4, MaxIters: 3000}).Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Solver{
		baseline.SA{Seed: 5, Iterations: 3000},
		baseline.DP{},
		baseline.WOA{Seed: 5, Iterations: 100},
		baseline.Greedy{},
	} {
		bSol, _, err := s.Solve(in.Clone())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if seSol.Utility < 0.97*bSol.Utility {
			t.Fatalf("SE %.0f clearly below %s %.0f on a pipeline instance",
				seSol.Utility, s.Name(), bSol.Utility)
		}
	}
}
