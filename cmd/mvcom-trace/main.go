// Command mvcom-trace merges per-process causal-trace dumps into one
// clock-aligned cross-process timeline.
//
// Usage:
//
//	# Merge causal-trace dumps ([name=]file-or-url; bare host:port hits
//	# the live /trace endpoint) into one clock-aligned timeline:
//	mvcom-trace -merge coordinator=co.json w0=127.0.0.1:9101 w1=w1.json
//	mvcom-trace -merge -tree co.json w0.json      # flamegraph-style text
//	mvcom-trace -merge -out merged.json co.json w0.json w1.json
//	mvcom-trace -merge -decisions results/soak_decisions -tree co.json  # join audit entries
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mvcom/internal/decisionlog"
	"mvcom/internal/tracemerge"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-trace", flag.ContinueOnError)
	var (
		merge  = fs.Bool("merge", false, "merge causal-trace dumps ([name=]file-or-url args) into one timeline (required)")
		tree   = fs.Bool("tree", false, "render a text tree instead of JSON")
		out    = fs.String("out", "", "write the merged timeline to this file (default stdout)")
		decDir = fs.String("decisions", "", "join this decision-journal directory's entries onto the timeline by epoch root trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*merge {
		return fmt.Errorf("-merge is required")
	}
	return mergeDumps(fs.Args(), *out, *tree, *decDir)
}

// mergeDumps ingests each [name=]path-or-url source, aligns the clocks,
// and writes the merged causal timeline to outPath (default stdout).
// decDir, when set, joins that decision journal's entries onto the
// timeline through their epoch root traces.
func mergeDumps(sources []string, outPath string, tree bool, decDir string) error {
	if len(sources) == 0 {
		return fmt.Errorf("-merge needs at least one [name=]file-or-url argument")
	}
	dumps := make([]*tracemerge.Dump, 0, len(sources))
	for _, src := range sources {
		d, err := tracemerge.Load(src)
		if err != nil {
			return err
		}
		dumps = append(dumps, d)
	}
	m := tracemerge.Merge(dumps)
	if len(m.Timeline.Orphans) > 0 {
		fmt.Fprintf(os.Stderr, "mvcom-trace: warning: %d orphan spans (parents outside the merged window)\n",
			len(m.Timeline.Orphans))
	}
	for _, w := range m.Warnings {
		fmt.Fprintf(os.Stderr, "mvcom-trace: warning: %s\n", w)
	}
	if decDir != "" {
		entries, torn, err := decisionlog.ReadDir(decDir)
		if err != nil {
			return err
		}
		if torn {
			fmt.Fprintln(os.Stderr, "mvcom-trace: warning: the decision journal's final line is torn (an append cut short); skipped")
		}
		joined := m.JoinDecisions(entries)
		fmt.Fprintf(os.Stderr, "mvcom-trace: joined %d of %d decision entries onto the timeline\n",
			joined, len(entries))
	}

	write := func(w io.Writer) error {
		if tree {
			return m.WriteTree(w)
		}
		return m.WriteJSON(w)
	}
	if outPath == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(os.Stderr, "merged %d dumps (%d spans, %d orphans) into %s\n",
		len(dumps), m.Timeline.Spans, len(m.Timeline.Orphans), outPath)
	return nil
}
