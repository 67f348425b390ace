// Command mvcom-trace generates and inspects the synthetic
// blockchain-sharding transaction dataset (the stand-in for the paper's
// Bitcoin Jan-2016 snapshot), and merges per-process causal-trace dumps
// into one cross-process timeline.
//
// Usage:
//
//	mvcom-trace -blocks 1378 -out trace.csv      # generate
//	mvcom-trace -in trace.csv -shards 50         # inspect / shard statistics
//	mvcom-trace -in trace.csv -shards 50 -json   # same, machine-readable
//
//	# Merge causal-trace dumps ([name=]file-or-url; bare host:port hits
//	# the live /trace endpoint) into one clock-aligned timeline:
//	mvcom-trace -merge coordinator=co.json w0=127.0.0.1:9101 w1=w1.json
//	mvcom-trace -merge -tree co.json w0.json      # flamegraph-style text
//	mvcom-trace -merge -out merged.json co.json w0.json w1.json
//	mvcom-trace -merge -decisions results/soak_decisions -tree co.json  # join audit entries
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mvcom/internal/decisionlog"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/stats"
	"mvcom/internal/tracemerge"
	"mvcom/internal/txgen"
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
		blocks   = fs.Int("blocks", txgen.DefaultBlocks, "number of blocks to generate")
		meanTxs  = fs.Float64("mean-txs", txgen.DefaultMeanTxs, "mean TXs per block")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", "", "write generated trace CSV to this file (default stdout)")
		in       = fs.String("in", "", "read an existing trace CSV instead of generating")
		shards   = fs.Int("shards", 0, "if > 0, also print per-shard statistics for this many shards")
		asJSON   = fs.Bool("json", false, "emit trace/shard statistics as JSON instead of text")
		obsFlags = obs.RegisterFlags(fs)
		merge    = fs.Bool("merge", false, "merge causal-trace dumps ([name=]file-or-url args) into one timeline")
		tree     = fs.Bool("tree", false, "with -merge, render a text tree instead of JSON")
		decDir   = fs.String("decisions", "", "with -merge, join this decision-journal directory's entries onto the timeline by epoch root trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *merge {
		return mergeDumps(fs.Args(), *out, *tree, *decDir)
	}

	reg, stopObs, err := obsFlags.Start("mvcom-trace", false)
	if err != nil {
		return err
	}
	defer stopObs()

	var tr *txgen.Trace
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = txgen.ReadCSV(f)
		if err != nil {
			return err
		}
		recordTraceMetrics(reg, tr)
		return describe(tr, *shards, *seed, *asJSON)
	}

	tr = txgen.Generate(randx.New(*seed), txgen.Config{Blocks: *blocks, MeanTxs: *meanTxs})
	recordTraceMetrics(reg, tr)
	if *out == "" {
		if err = tr.WriteCSV(os.Stdout); err != nil {
			return err
		}
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := tr.WriteCSV(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(os.Stderr, "wrote %d blocks (%d TXs) to %s\n", len(tr.Blocks), tr.TotalTxs(), *out)
	if *shards > 0 {
		return describe(tr, *shards, *seed, *asJSON)
	}
	return nil
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
		entries, err := decisionlog.ReadDir(decDir)
		if err != nil {
			return err
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

// recordTraceMetrics publishes basic trace gauges when a registry is live.
func recordTraceMetrics(reg *obs.Registry, tr *txgen.Trace) {
	if reg == nil {
		return
	}
	reg.Gauge("mvcom_trace_blocks", "blocks in the loaded/generated trace").Set(float64(len(tr.Blocks)))
	reg.Gauge("mvcom_trace_total_txs", "transactions in the loaded/generated trace").Set(float64(tr.TotalTxs()))
}

// summaryJSON is the machine-readable form of one stats.Summary.
type summaryJSON struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func toSummaryJSON(s stats.Summary) summaryJSON {
	return summaryJSON{Count: s.Count, Mean: s.Mean, Stddev: s.Stddev, Min: s.Min, Max: s.Max}
}

func describe(tr *txgen.Trace, shards int, seed int64, asJSON bool) error {
	txs := make([]float64, len(tr.Blocks))
	for i, b := range tr.Blocks {
		txs[i] = float64(b.Txs)
	}
	s, err := stats.Summarize(txs)
	if err != nil {
		return err
	}
	var shardSizes []float64
	if shards > 0 {
		parts, err := tr.IntoShards(randx.New(seed), shards)
		if err != nil {
			return err
		}
		shardSizes = make([]float64, len(parts))
		for i, p := range parts {
			shardSizes[i] = float64(p.TxTotal)
		}
	}
	if asJSON {
		out := struct {
			Blocks      int          `json:"blocks"`
			TotalTxs    int          `json:"totalTxs"`
			TxsPerBlock summaryJSON  `json:"txsPerBlock"`
			Shards      int          `json:"shards,omitempty"`
			TxsPerShard *summaryJSON `json:"txsPerShard,omitempty"`
			ShardSizes  []float64    `json:"shardSizes,omitempty"`
		}{Blocks: s.Count, TotalTxs: tr.TotalTxs(), TxsPerBlock: toSummaryJSON(s)}
		if shards > 0 {
			ss, err := stats.Summarize(shardSizes)
			if err != nil {
				return err
			}
			sj := toSummaryJSON(ss)
			out.Shards = shards
			out.TxsPerShard = &sj
			out.ShardSizes = shardSizes
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("blocks       %d\n", s.Count)
	fmt.Printf("total TXs    %d\n", tr.TotalTxs())
	fmt.Printf("TXs/block    mean=%.1f stddev=%.1f min=%.0f max=%.0f\n", s.Mean, s.Stddev, s.Min, s.Max)
	if shards > 0 {
		ss, err := stats.Summarize(shardSizes)
		if err != nil {
			return err
		}
		fmt.Printf("shards       %d\n", shards)
		fmt.Printf("TXs/shard    mean=%.1f stddev=%.1f min=%.0f max=%.0f\n", ss.Mean, ss.Stddev, ss.Min, ss.Max)
	}
	return nil
}
