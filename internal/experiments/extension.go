package experiments

import (
	"fmt"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/epoch"
	"mvcom/internal/metrics"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

// ExtThroughput is an experiment beyond the paper's figures: it runs the
// *full* five-stage pipeline for several epochs under each scheduling
// policy and reports end-to-end root-chain throughput (committed TXs per
// 1000 s of deadline) and total cumulative age — the quantities the
// paper's introduction motivates but never measures directly. Series: one
// per scheduler; X = committee count, Y = throughput; the age totals are
// recorded in Notes.
func ExtThroughput(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	committeeCounts := []int{
		scaleInt(20, opts.Scale, 6),
		scaleInt(40, opts.Scale, 10),
		scaleInt(60, opts.Scale, 14),
	}
	const epochs = 3
	schedulers := []struct {
		name string
		make func(seed int64) epoch.Scheduler
	}{
		{name: "SE", make: func(seed int64) epoch.Scheduler {
			return epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
				Seed: seed, Gamma: 4, MaxIters: 4000,
				Obs: obs.NewSEObserver(opts.Obs),
			})}
		}},
		{name: "Greedy", make: func(seed int64) epoch.Scheduler {
			return epoch.SolverScheduler{Solver: baseline.Greedy{}}
		}},
		{name: "AcceptAll", make: func(seed int64) epoch.Scheduler {
			return epoch.AcceptAll{}
		}},
	}
	res := FigureResult{
		ID:     "ext1",
		Title:  "End-to-end root-chain throughput (full pipeline)",
		XLabel: "committees",
		YLabel: "committed TXs per 1000 s",
	}
	series := make([]Series, len(schedulers))
	for si := range series {
		series[si].Label = schedulers[si].name
	}
	for _, committees := range committeeCounts {
		for si, sc := range schedulers {
			p, err := epoch.NewPipeline(epoch.Config{
				Committees:    committees,
				CommitteeSize: 8,
				Trace: txgen.Config{
					Blocks:  committees * 3,
					MeanTxs: 1200,
				},
				Seed: opts.Seed, // identical world for every scheduler
				Obs:  obs.NewEpochObserver(opts.Obs),
			})
			if err != nil {
				return FigureResult{}, err
			}
			capacity := p.Trace().TotalTxs() / 3
			nmin := committees / 4
			results, err := p.RunEpochs(epochs, sc.make(opts.Seed), 1.5, capacity, nmin)
			if err != nil {
				return FigureResult{}, fmt.Errorf("%s |I|=%d: %w", sc.name, committees, err)
			}
			var outcomes []metrics.EpochOutcome
			var ddlSum float64
			for _, r := range results {
				outcomes = append(outcomes, metrics.Outcome(r.Epoch, &r.Instance, r.Solution))
				ddlSum += r.DDL
			}
			agg := metrics.AggregateOutcomes(outcomes)
			throughput := 0.0
			if ddlSum > 0 {
				throughput = float64(agg.TotalTxs) / ddlSum * 1000
			}
			series[si].X = append(series[si].X, float64(committees))
			series[si].Y = append(series[si].Y, throughput)
			res.Notes = append(res.Notes, fmt.Sprintf(
				"|I|=%d %s: txs=%d age=%.0fs utility=%.0f",
				committees, sc.name, agg.TotalTxs, agg.TotalAge, agg.TotalUtility))
		}
	}
	res.Series = series
	return res, nil
}
