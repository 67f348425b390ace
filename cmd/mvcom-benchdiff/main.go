// Command mvcom-benchdiff maintains the repo's continuous benchmark
// journal (BENCH_MVCOM.json) and gates CI on performance regressions.
//
// Usage:
//
//	mvcom-benchdiff -ingest raw.txt -out BENCH_MVCOM.json
//	    Parse `go test -bench -count N` output into a journal stamped
//	    with the current environment fingerprint.
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
		ingest     = fs.String("ingest", "", "parse `go test -bench` output from this file ('-' = stdin) into a journal")
		out        = fs.String("out", "BENCH_MVCOM.json", "output path for -ingest")
		note       = fs.String("note", "", "free-form note stored in the journal")
		oldPath    = fs.String("old", "", "baseline journal for diffing")
		newPath    = fs.String("new", "", "candidate journal for diffing")
		timeThresh = fs.Float64("time-threshold", 0.10, "minimum relative ns/op slowdown gated as a regression")
		warnOnly   = fs.Bool("warn-only", false, "with -old/-new: print regressions but always exit 0 (nightly informational diffs)")
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
		findings, regressed := benchjournal.Diff(oldJ, newJ, benchjournal.Options{TimeThreshold: *timeThresh})
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
