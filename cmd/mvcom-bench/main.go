// Command mvcom-bench regenerates the data figures of the MVCom paper.
// Every figure from the evaluation section (Figs. 2a/2b and 8–14) has a
// runner; output is TSV (label, x, y) suitable for any plotting tool.
//
// Usage:
//
//	mvcom-bench -fig 8                 # one figure to stdout
//	mvcom-bench -fig all -out results/ # all figures, one file each
//	mvcom-bench -fig 11 -scale 0.2     # reduced-size run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"mvcom/internal/experiments"
	"mvcom/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-bench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure id (2a 2b 8 9a 9b 10 11 12 13 14 ext1) or 'all'")
		scale    = fs.Float64("scale", 1.0, "size scale in (0,1]; 1 = paper parameters")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", "", "output directory (default: stdout)")
		obsFlags = obs.RegisterFlags(fs)
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mvcom-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mvcom-bench: memprofile:", err)
			}
		}()
	}
	reg, stopObs, err := obsFlags.Start("mvcom-bench", false)
	if err != nil {
		return err
	}
	defer stopObs()
	opts := experiments.Options{Seed: *seed, Scale: *scale, Obs: reg}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("figure %s: %w", id, err)
		}
		if *out == "" {
			if err := res.WriteTSV(os.Stdout); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# figure %s done in %s\n", id, time.Since(start).Round(time.Millisecond))
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, "fig"+id+".tsv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = res.WriteTSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# figure %s -> %s (%s)\n", id, path, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
