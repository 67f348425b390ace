// Package experiments regenerates every data figure of the MVCom paper
// (Figs. 2 and 8–14). Each runner builds the paper's scenario — shard
// sizes from the synthetic Bitcoin trace, two-phase latencies from the
// PoW/PBFT epoch pipeline — executes the SE algorithm and the baselines,
// and returns the plotted series in a renderer-agnostic FigureResult.
//
// Runners accept an Options.Scale in (0, 1] so that continuous-integration
// and benchmark runs can execute reduced-size versions of each experiment;
// Scale = 1 reproduces the paper's parameters.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"mvcom/internal/core"
	"mvcom/internal/epoch"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/txgen"
)

// Errors returned by the harness.
var (
	ErrUnknownFigure = errors.New("experiments: unknown figure")
	ErrBadScale      = errors.New("experiments: scale must be in (0, 1]")
)

// Options tunes a figure run.
type Options struct {
	// Seed drives all randomness. Default 1.
	Seed int64
	// Scale in (0, 1] shrinks instance sizes and iteration budgets; 1
	// reproduces the paper's parameters. Default 1.
	Scale float64
	// Obs, when non-nil, receives live instrumentation from every SE
	// solver and epoch pipeline a runner builds (kernel counters, stage
	// latency histograms, the cumulative-age gauge). Nil disables every
	// hook; results are identical either way.
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Scale <= 0 || o.Scale > 1 {
		return o, ErrBadScale
	}
	return o, nil
}

// scaleInt shrinks n by the scale with a floor.
func scaleInt(n int, scale float64, floor int) int {
	v := int(float64(n) * scale)
	if v < floor {
		v = floor
	}
	return v
}

// Series is one plotted line/bar group: Y against X with a label.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// FigureResult is the renderer-agnostic output of one figure runner.
type FigureResult struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes records scenario parameters and qualitative checks.
	Notes []string
}

// WriteTSV renders the figure as tab-separated rows:
// series-label <TAB> x <TAB> y.
func (f FigureResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n# x: %s, y: %s\n", f.ID, f.Title, f.XLabel, f.YLabel); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	for _, s := range f.Series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s\t%g\t%g\n", s.Label, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Runner is a figure-regeneration function.
type Runner func(Options) (FigureResult, error)

// Registry maps figure IDs to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"2a":   Fig2a,
		"2b":   Fig2b,
		"8":    Fig8,
		"9a":   Fig9a,
		"9b":   Fig9b,
		"10":   Fig10,
		"11":   Fig11,
		"12":   Fig12,
		"13":   Fig13,
		"14":   Fig14,
		"ext1": ExtThroughput,
	}
}

// Run executes one figure by ID.
func Run(id string, opts Options) (FigureResult, error) {
	r, ok := Registry()[strings.ToLower(strings.TrimPrefix(id, "fig"))]
	if !ok {
		return FigureResult{}, fmt.Errorf("%w: %q", ErrUnknownFigure, id)
	}
	return r(opts)
}

// IDs lists the registered figures in order.
func IDs() []string {
	m := Registry()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PaperInstance builds a Figs. 8–14 style scheduling instance from a
// seed; see paperInstance for the construction.
func PaperInstance(seed int64, nShards, capacity int, alpha, nminFrac float64) (core.Instance, error) {
	if nShards < 1 || capacity < 1 {
		return core.Instance{}, fmt.Errorf("experiments: invalid instance shape (shards=%d capacity=%d)", nShards, capacity)
	}
	in := paperInstance(randx.New(seed), nShards, capacity, alpha, nminFrac)
	if err := in.Validate(); err != nil {
		return core.Instance{}, err
	}
	return in, nil
}

// paperInstance builds a Figs. 8–14 style scheduling instance: |I| shards
// whose sizes come from the synthetic Bitcoin trace (mean size tuned so
// that total size ≈ loadFactor × capacity, making the knapsack binding but
// Nmin feasible) and whose two-phase latencies are PoW (600 s expectation)
// plus PBFT (54.5 s expectation) draws.
func paperInstance(rng *randx.RNG, nShards, capacity int, alpha float64, nminFrac float64) core.Instance {
	const loadFactor = 2.0
	meanShard := loadFactor * float64(capacity) / float64(nShards)
	tr := txgen.Generate(rng.Split(), txgen.Config{
		Blocks:  nShards,
		MeanTxs: meanShard,
		Sigma:   0.5,
		MinTxs:  int(meanShard/8) + 1,
		MaxTxs:  int(meanShard * 6),
	})
	shards, err := tr.IntoShards(rng.Split(), nShards)
	if err != nil {
		// nShards >= 1 and the trace is non-empty, so this cannot happen;
		// keep the API total by returning an empty instance the caller's
		// Validate will reject.
		return core.Instance{}
	}
	in := core.Instance{
		Sizes:     txgen.ShardSizes(shards),
		Latencies: make([]float64, nShards),
		Alpha:     alpha,
		Capacity:  capacity,
		Nmin:      int(nminFrac * float64(nShards)),
	}
	for i := range in.Latencies {
		formation := rng.Exponential(600)
		consensus := rng.Exponential(54.5)
		in.Latencies[i] = formation + consensus
	}
	// A committee that takes longer accumulates more transactions — the
	// paper's motivating dilemma is exactly that the straggler C3 holds
	// the largest shard. Couple sizes to latencies (the shard grows with
	// the committee's processing time) and rescale so the mean shard size
	// and the load factor are unchanged.
	meanLat := 0.0
	for _, l := range in.Latencies {
		meanLat += l
	}
	meanLat /= float64(nShards)
	var before, after float64
	for i, sz := range in.Sizes {
		before += float64(sz)
		scaled := float64(sz) * (0.35 + 0.65*in.Latencies[i]/meanLat)
		in.Sizes[i] = int(scaled)
		after += scaled
	}
	if after > 0 {
		correction := before / after
		for i := range in.Sizes {
			in.Sizes[i] = int(float64(in.Sizes[i]) * correction)
			if in.Sizes[i] < 1 {
				in.Sizes[i] = 1
			}
		}
	}
	// The deadline is the Nmax-fraction (80%) arrival instant, per the
	// paper's online admission rule; later committees are stragglers.
	sorted := append([]float64(nil), in.Latencies...)
	sort.Float64s(sorted)
	idx := int(0.8*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	in.DDL = sorted[idx]
	// Nmin counts against the arrived set, not the full committee list.
	arrived := int(0.8 * float64(nShards))
	if n := int(nminFrac * float64(arrived)); n < in.Nmin {
		in.Nmin = n
	}
	return in
}

// solverSet builds the paper's four algorithms with budgets scaled for the
// instance size. Only the SE solver is instrumented — the baselines have
// no kernel hooks.
func solverSet(seed int64, gamma, maxIters int, reg *obs.Registry) []core.Solver {
	return []core.Solver{
		core.NewSE(core.SEConfig{Seed: seed, Gamma: gamma, MaxIters: maxIters, ConvergenceWindow: maxIters / 10, Obs: obs.NewSEObserver(reg)}),
		baselineSA(seed, maxIters),
		baselineDP(),
		baselineWOA(seed, maxIters),
	}
}

// measurementPipeline builds the epoch pipeline used by Fig. 2.
func measurementPipeline(seed int64, committees, committeeSize int, reg *obs.Registry) (*epoch.Pipeline, error) {
	return epoch.NewPipeline(epoch.Config{
		Committees:    committees,
		CommitteeSize: committeeSize,
		Trace: txgen.Config{
			Blocks:  committees * 2,
			MeanTxs: 1850,
		},
		Seed: seed,
		Obs:  obs.NewEpochObserver(reg),
	})
}
