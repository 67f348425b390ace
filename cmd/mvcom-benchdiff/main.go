// Command mvcom-benchdiff maintains the repo's continuous benchmark
// journal (BENCH_MVCOM.json) and gates CI on performance regressions.
//
// Usage:
//
//	mvcom-benchdiff -ingest raw.txt -out BENCH_MVCOM.json [-convergence]
//	    Parse `go test -bench -count N` output into a journal stamped
//	    with the current environment fingerprint. -convergence also runs
//	    a small deterministic SE solve with the convergence diagnostics
//	    attached and records the headline stats (d_TV, time-to-ε,
//	    mixing proxy).
//
//	mvcom-benchdiff -old BENCH_MVCOM.json -new results/BENCH_MVCOM.json
//	    Diff two journals. Exits 1 when a regression fires: a median
//	    slowdown beyond the noise-widened threshold on a matching
//	    environment fingerprint, or, anywhere, allocation growth (from
//	    zero too), an on/off overhead ratio whose best sample exceeds
//	    1.03, or a baseline benchmark carrying either gate that the new
//	    journal no longer reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mvcom/internal/benchjournal"
	"mvcom/internal/core"
	"mvcom/internal/experiments"
	"mvcom/internal/seobs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-benchdiff", flag.ContinueOnError)
	var (
		ingest      = fs.String("ingest", "", "parse `go test -bench` output from this file ('-' = stdin) into a journal")
		out         = fs.String("out", "BENCH_MVCOM.json", "output path for -ingest")
		note        = fs.String("note", "", "free-form note stored in the journal")
		convergence = fs.Bool("convergence", false, "with -ingest: record headline convergence diagnostics from a probe solve")
		oldPath     = fs.String("old", "", "baseline journal for diffing")
		newPath     = fs.String("new", "", "candidate journal for diffing")
		timeThresh  = fs.Float64("time-threshold", 0.10, "minimum relative ns/op slowdown gated as a regression")
		allocThresh = fs.Float64("alloc-threshold", 0.01, "relative allocs/op growth gated as a regression")
		noiseFactor = fs.Float64("noise-factor", 1.0, "widen the time threshold by this factor times the relative IQR")
		warnOnly    = fs.Bool("warn-only", false, "with -old/-new: print regressions but always exit 0 (nightly informational diffs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *ingest != "":
		in := os.Stdin
		if *ingest != "-" {
			f, err := os.Open(*ingest)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		benches, err := benchjournal.ParseGoBench(in)
		if err != nil {
			return err
		}
		if len(benches) == 0 {
			return fmt.Errorf("no benchmark results found in %s", *ingest)
		}
		j := &benchjournal.Journal{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Note:        *note,
			Env:         benchjournal.CurrentEnv(),
			Benchmarks:  benches,
		}
		if *convergence {
			c, err := convergenceProbe()
			if err != nil {
				return fmt.Errorf("convergence probe: %w", err)
			}
			j.Convergence = c
		}
		if err := j.Save(*out); err != nil {
			return err
		}
		fmt.Printf("ingested %d benchmarks into %s\n", len(benches), *out)
		return nil

	case *oldPath != "" && *newPath != "":
		oldJ, err := benchjournal.Load(*oldPath)
		if err != nil {
			return err
		}
		newJ, err := benchjournal.Load(*newPath)
		if err != nil {
			return err
		}
		findings, regressed := benchjournal.Diff(oldJ, newJ, benchjournal.Options{
			TimeThreshold:  *timeThresh,
			AllocThreshold: *allocThresh,
			NoiseFactor:    *noiseFactor,
		})
		for _, f := range findings {
			fmt.Println(f)
		}
		if oldJ.Env != newJ.Env {
			fmt.Println("note: environment fingerprints differ; wall-time gates degraded to warnings")
		}
		if regressed {
			if *warnOnly {
				fmt.Printf("warning: benchmark regression against %s (not gated: -warn-only)\n", *oldPath)
				return nil
			}
			return fmt.Errorf("benchmark regression against %s", *oldPath)
		}
		fmt.Printf("no regression: %s vs %s (%d findings)\n", *oldPath, *newPath, len(findings))
		return nil

	default:
		fs.Usage()
		return fmt.Errorf("pick a mode: -ingest or -old/-new")
	}
}

// convergenceProbe runs one small deterministic SE solve with the
// convergence diagnostics attached — |I| = 12 keeps the d_TV estimator's
// Gibbs enumeration live — and returns the headline stats. The probe
// then re-solves the same instance on the same seed with the adaptive
// β/Γ schedule on and refuses to journal a build where the schedule
// reaches the ε-band of its final best in more rounds than the fixed
// chain: a journal entry certifies that the annealed mode is an
// acceleration, never a regression, on the probe workload.
func convergenceProbe() (*benchjournal.Convergence, error) {
	in, err := experiments.PaperInstance(1, 12, 800, 1.5, 0.5)
	if err != nil {
		return nil, err
	}
	solve := func(adaptive bool) (seobs.Snapshot, error) {
		diag := seobs.New(seobs.Config{})
		_, _, err := core.NewSE(core.SEConfig{
			Seed:              1,
			Gamma:             2,
			MaxIters:          6000,
			ConvergenceWindow: 6000,
			Adaptive:          adaptive,
			Diag:              diag,
		}).Solve(in.Clone())
		if err != nil {
			return seobs.Snapshot{}, err
		}
		return diag.Snapshot(), nil
	}
	s, err := solve(false)
	if err != nil {
		return nil, err
	}
	a, err := solve(true)
	if err != nil {
		return nil, err
	}
	c := &benchjournal.Convergence{
		K:                      s.K,
		Gamma:                  s.Gamma,
		Rounds:                 s.Rounds,
		BestUtility:            s.BestUtility,
		TimeToEpsRounds:        s.TimeToEpsRounds,
		SwapAcceptRate:         s.SwapAcceptRate,
		IntegratedAutocorrTime: s.IntegratedAutocorrTime,

		AdaptiveTimeToEpsRounds: a.TimeToEpsRounds,
		AdaptiveStage:           a.ScheduleStage,
	}
	if s.DTV != nil {
		c.DTV = s.DTV.Estimate
	}
	if a.DTV != nil {
		c.AdaptiveDTV = a.DTV.Estimate
	}
	if s.TimeToEpsRounds >= 0 &&
		(a.TimeToEpsRounds < 0 || a.TimeToEpsRounds > s.TimeToEpsRounds) {
		return nil, fmt.Errorf("adaptive schedule reached ε after %d rounds, fixed after %d: the schedule must not slow convergence on the probe",
			a.TimeToEpsRounds, s.TimeToEpsRounds)
	}
	return c, nil
}
