// Command mvcom-sim runs the full five-stage Elastico simulation for a
// number of epochs and reports per-epoch and aggregate results: committee
// two-phase latencies, the scheduling decision, root-chain growth,
// throughput, and cumulative transaction age. Use -scheduler to compare
// the MVCom SE algorithm against the baselines or the no-scheduling
// policy on the same seeded world.
//
// Usage:
//
//	mvcom-sim -committees 50 -epochs 5 -scheduler se
//	mvcom-sim -committees 50 -epochs 5 -scheduler acceptall
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/epoch"
	"mvcom/internal/metrics"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-sim", flag.ContinueOnError)
	var (
		committees  = fs.Int("committees", 30, "member committees per epoch")
		size        = fs.Int("committee-size", 8, "replicas per committee")
		faulty      = fs.Int("faulty", 0, "Byzantine replicas per committee")
		epochs      = fs.Int("epochs", 5, "epochs to simulate")
		alpha       = fs.Float64("alpha", 1.5, "throughput weight α")
		capFrac     = fs.Float64("capacity-frac", 0.33, "final-block capacity as a fraction of total trace TXs")
		nminFrac    = fs.Float64("nmin-frac", 0.25, "Nmin as a fraction of committees")
		failureRate = fs.Float64("failure-rate", 0, "per-epoch committee failure probability")
		poolDriven  = fs.Bool("pool-driven", false, "feed epochs from the trace's arrival process")
		detailed    = fs.Bool("detailed-pbft", false, "message-level PBFT for stage 3")
		hashAssign  = fs.Bool("hash-assign", false, "Elastico identity-bit committee assignment")
		retarget    = fs.Bool("retarget", false, "difficulty retargeting across epochs")
		drift       = fs.Float64("hash-drift", 1.0, "hash-power multiplier per epoch")
		scheduler   = fs.String("scheduler", "se", "se | sa | dp | woa | greedy | acceptall")
		gamma       = fs.Int("gamma", 10, "SE parallel exploration threads")
		workers     = fs.Int("workers", 0, "SE kernel worker goroutines (0 = GOMAXPROCS)")
		adaptive    = fs.Bool("adaptive", false, "annealed β/Γ schedule in the SE scheduler")
		seed        = fs.Int64("seed", 1, "random seed")
		obsFlags    = obs.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, stopObs, err := obsFlags.Start("mvcom-sim", false)
	if err != nil {
		return err
	}
	defer stopObs()

	p, err := epoch.NewPipeline(epoch.Config{
		Committees:         *committees,
		CommitteeSize:      *size,
		FaultyPerCommittee: *faulty,
		FailureRate:        *failureRate,
		PoolDriven:         *poolDriven,
		DetailedConsensus:  *detailed,
		HashAssignment:     *hashAssign,
		Retarget:           *retarget,
		HashPowerDrift:     *drift,
		Trace: txgen.Config{
			Blocks:  *committees * 3,
			MeanTxs: 1200,
		},
		Seed: *seed,
		Obs:  obs.NewEpochObserver(reg),
	})
	if err != nil {
		return err
	}
	capacity := int(*capFrac * float64(p.Trace().TotalTxs()))
	if capacity < 1 {
		return fmt.Errorf("capacity fraction %v too small", *capFrac)
	}
	nmin := int(*nminFrac * float64(*committees))
	sched, err := pickScheduler(*scheduler, *seed, *gamma, *workers, *adaptive, reg)
	if err != nil {
		return err
	}

	fmt.Printf("simulating %d epochs: |I|=%d size=%d capacity=%d nmin=%d scheduler=%s\n\n",
		*epochs, *committees, *size, capacity, nmin, *scheduler)
	start := time.Now()
	results, err := p.RunEpochs(*epochs, sched, *alpha, capacity, nmin)
	if err != nil {
		return err
	}
	var outcomes []metrics.EpochOutcome
	fmt.Printf("%-6s %-9s %-10s %-10s %-10s %-12s %-8s\n",
		"epoch", "DDL(s)", "arrived", "permitted", "TXs", "age(s)", "failed")
	for _, res := range results {
		o := metrics.Outcome(res.Epoch, &res.Instance, res.Solution)
		outcomes = append(outcomes, o)
		failed := 0
		for _, rep := range res.Reports {
			if rep.Failed {
				failed++
			}
		}
		fmt.Printf("%-6d %-9.0f %-10d %-10d %-10d %-12.0f %-8d\n",
			res.Epoch, res.DDL, len(res.Instance.Arrived()), res.Solution.Count,
			res.Solution.Load, o.CumulativeAge, failed)
	}
	agg := metrics.AggregateOutcomes(outcomes)
	fmt.Printf("\ntotals: %d TXs committed, cumulative age %.0f s, utility %.0f\n",
		agg.TotalTxs, agg.TotalAge, agg.TotalUtility)
	fmt.Printf("mean permit rate %.1f%%, wall time %s\n",
		100*agg.MeanPermitRate, time.Since(start).Round(time.Millisecond))
	if err := p.Chain().Verify(); err != nil {
		return fmt.Errorf("root chain verification: %w", err)
	}
	fmt.Printf("root chain verified: height=%d tip=%s\n", p.Chain().Height(), p.Chain().TipHash().Short())
	return nil
}

func pickScheduler(name string, seed int64, gamma, workers int, adaptive bool, reg *obs.Registry) (epoch.Scheduler, error) {
	switch strings.ToLower(name) {
	case "se":
		return epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
			Seed: seed, Gamma: gamma, Workers: workers, MaxIters: 8000,
			Adaptive: adaptive, Obs: obs.NewSEObserver(reg),
		})}, nil
	case "sa":
		return epoch.SolverScheduler{Solver: baseline.SA{Seed: seed, Iterations: 8000}}, nil
	case "dp":
		return epoch.SolverScheduler{Solver: baseline.DP{}}, nil
	case "woa":
		return epoch.SolverScheduler{Solver: baseline.WOA{Seed: seed, Iterations: 200}}, nil
	case "greedy":
		return epoch.SolverScheduler{Solver: baseline.Greedy{}}, nil
	case "acceptall":
		return epoch.AcceptAll{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}
