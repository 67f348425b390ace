// Command mvcom runs one committee-scheduling instance with a chosen
// algorithm and prints the decision: which shards the final committee
// should permit, the achieved utility, the valuable degree, and the
// theoretical bounds for the run.
//
// Usage:
//
//	mvcom -shards 50 -capacity 40000 -alpha 1.5 -algo se -gamma 10 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/experiments"
	"mvcom/internal/metrics"
	"mvcom/internal/obs"
	"mvcom/internal/seobs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom", flag.ContinueOnError)
	var (
		shards   = fs.Int("shards", 50, "number of member committees |I|")
		capacity = fs.Int("capacity", 40000, "final-block TX capacity Ĉ")
		alpha    = fs.Float64("alpha", 1.5, "throughput weight α")
		nminFrac = fs.Float64("nmin-frac", 0.5, "Nmin as a fraction of |I|")
		algo     = fs.String("algo", "se", "algorithm: se | sa | dp | woa | greedy | brute")
		gamma    = fs.Int("gamma", 10, "parallel exploration threads Γ (se only)")
		workers  = fs.Int("workers", 0, "worker goroutines for the SE kernel (0 = GOMAXPROCS, se only)")
		adaptive = fs.Bool("adaptive", false, "annealed β/Γ schedule driven by convergence diagnostics (se only)")
		iters    = fs.Int("iters", 8000, "iteration budget")
		seed     = fs.Int64("seed", 1, "random seed")
		verbose  = fs.Bool("v", false, "print the full selection")
		obsFlags = obs.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg, stopObs, err := obsFlags.Start("mvcom", false)
	if err != nil {
		return err
	}
	defer stopObs()

	in, err := experiments.PaperInstance(*seed, *shards, *capacity, *alpha, *nminFrac)
	if err != nil {
		return err
	}
	// With a live registry the SE run also feeds the convergence
	// diagnostics, served at /debug/convergence.
	var diag *seobs.Diag
	if reg != nil {
		diag = seobs.New(seobs.Config{Registry: reg})
	}
	solver, err := pickSolver(*algo, *seed, *gamma, *workers, *iters, *adaptive, reg, diag)
	if err != nil {
		return err
	}
	sol, trace, err := solver.Solve(in.Clone())
	if err != nil {
		return err
	}

	fmt.Printf("algorithm        %s\n", solver.Name())
	fmt.Printf("instance         |I|=%d capacity=%d alpha=%g Nmin=%d DDL=%.1fs\n",
		in.NumShards(), in.Capacity, in.Alpha, in.Nmin, in.DDL)
	fmt.Printf("permitted        %d committees, %d TXs (%.1f%% of capacity)\n",
		sol.Count, sol.Load, 100*float64(sol.Load)/float64(in.Capacity))
	fmt.Printf("utility          %.1f\n", sol.Utility)
	fmt.Printf("valuable degree  %.2f\n", metrics.ValuableDegree(&in, sol))
	fmt.Printf("iterations       %d (trace points: %d)\n", sol.Iterations, len(trace))

	if umax, umin := utilityRange(&in); umax > umin {
		if b, err := core.MixingTimeBounds(in.NumShards(), 2, 0, umax, umin, 0.01); err == nil {
			fmt.Printf("mixing time      log-bounds [%.1f, %.1f] (Theorem 1, nats)\n", b.LogLower, b.LogUpper)
		}
	}
	if loss, err := core.OptimalityLossBound(2, in.NumShards()); err == nil {
		fmt.Printf("approx. loss     ≤ %.1f (Remark 1, β=2)\n", loss)
	}
	if *verbose {
		fmt.Println()
		if err := core.WriteExplanation(os.Stdout, &in, sol); err != nil {
			return err
		}
	}
	return nil
}

func pickSolver(name string, seed int64, gamma, workers, iters int, adaptive bool, reg *obs.Registry, diag *seobs.Diag) (core.Solver, error) {
	switch strings.ToLower(name) {
	case "se":
		return core.NewSE(core.SEConfig{Seed: seed, Gamma: gamma, Workers: workers, MaxIters: iters, Adaptive: adaptive, Obs: obs.NewSEObserver(reg), Diag: diag}), nil
	case "sa":
		return baseline.SA{Seed: seed, Iterations: iters}, nil
	case "dp":
		return baseline.DP{}, nil
	case "woa":
		return baseline.WOA{Seed: seed, Iterations: iters / 40}, nil
	case "greedy":
		return baseline.Greedy{}, nil
	case "brute":
		return baseline.BruteForce{}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// utilityRange brackets the per-solution utility for the theory report:
// Umin = sum of negative values, Umax = best-case positive sum.
func utilityRange(in *core.Instance) (umax, umin float64) {
	for i := 0; i < in.NumShards(); i++ {
		v := in.Value(i)
		if v > 0 {
			umax += v
		} else {
			umin += v
		}
	}
	return umax, umin
}
