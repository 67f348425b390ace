package experiments

import (
	"fmt"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/metrics"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/stats"
)

func baselineSA(seed int64, iters int) core.Solver {
	return baseline.SA{Seed: seed, Iterations: iters}
}

func baselineDP() core.Solver { return baseline.DP{} }

func baselineWOA(seed int64, iters int) core.Solver {
	woaIters := iters / 40
	if woaIters < 50 {
		woaIters = 50
	}
	return baseline.WOA{Seed: seed, Iterations: woaIters, Whales: 30}
}

// Fig2a measures the two-phase latency versus network size: formation
// latency dominates and grows roughly linearly as nodes are added
// (Elastico measurement, Fig. 2a).
func Fig2a(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	const committeeSize = 16
	networkSizes := []int{200, 400, 600, 800, 1200, 1600}
	formation := Series{Label: "formation"}
	consensus := Series{Label: "consensus"}
	for _, nodes := range networkSizes {
		n := scaleInt(nodes, opts.Scale, committeeSize*2)
		committees := n / committeeSize
		p, err := measurementPipeline(opts.Seed, committees, committeeSize, opts.Obs)
		if err != nil {
			return FigureResult{}, err
		}
		reports, _, err := p.Measure()
		if err != nil {
			return FigureResult{}, err
		}
		var fSum, cSum float64
		for _, r := range reports {
			fSum += r.Formation.Seconds()
			cSum += r.Consensus.Seconds()
		}
		k := float64(len(reports))
		formation.X = append(formation.X, float64(committees*committeeSize))
		formation.Y = append(formation.Y, fSum/k)
		consensus.X = append(consensus.X, float64(committees*committeeSize))
		consensus.Y = append(consensus.Y, cSum/k)
	}
	res := FigureResult{
		ID:     "2a",
		Title:  "Two-phase latency vs network size",
		XLabel: "nodes",
		YLabel: "latency (s)",
		Series: []Series{formation, consensus},
	}
	if fit, err := stats.FitLine(formation.X, formation.Y); err == nil {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"formation latency linear fit: slope=%.4f s/node, R2=%.3f", fit.Slope, fit.R2))
	}
	return res, nil
}

// Fig2b measures the CDFs of formation latency and consensus latency for
// one network size (Fig. 2b).
func Fig2b(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	committees := scaleInt(60, opts.Scale, 8)
	p, err := measurementPipeline(opts.Seed, committees, 16, opts.Obs)
	if err != nil {
		return FigureResult{}, err
	}
	var formation, consensus []float64
	// Several epochs to populate the CDF.
	for e := 0; e < 5; e++ {
		reports, _, err := p.Measure()
		if err != nil {
			return FigureResult{}, err
		}
		for _, r := range reports {
			formation = append(formation, r.Formation.Seconds())
			consensus = append(consensus, r.Consensus.Seconds())
		}
	}
	toSeries := func(label string, xs []float64) Series {
		s := Series{Label: label}
		for _, p := range stats.ECDF(xs) {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Fraction)
		}
		return s
	}
	return FigureResult{
		ID:     "2b",
		Title:  "CDF of two-phase latency components",
		XLabel: "latency (s)",
		YLabel: "CDF",
		Series: []Series{toSeries("formation", formation), toSeries("consensus", consensus)},
		Notes: []string{
			fmt.Sprintf("samples per component: %d", len(formation)),
		},
	}, nil
}

// Fig8 plots SE convergence for Γ ∈ {1,5,10,15,20,25} with |I|=500,
// Ĉ=500K, α=1.5 (Fig. 8): more parallel explorers converge faster and the
// benefit saturates around Γ=10.
func Fig8(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	nShards := scaleInt(500, opts.Scale, 30)
	capacity := scaleInt(500_000, opts.Scale, 30_000)
	maxIters := 20 * nShards // budget scales with the state space
	rng := randx.New(opts.Seed)
	in := paperInstance(rng, nShards, capacity, 1.5, 0)

	grid := metrics.Grid(maxIters, 60)
	res := FigureResult{
		ID:     "8",
		Title:  "SE convergence vs number of parallel threads Γ",
		XLabel: "iteration",
		YLabel: "utility",
		Notes: []string{
			fmt.Sprintf("|I|=%d capacity=%d alpha=1.5", nShards, capacity),
		},
	}
	for _, gamma := range []int{1, 5, 10, 15, 20, 25} {
		se := core.NewSE(core.SEConfig{
			Seed: opts.Seed, Gamma: gamma,
			MaxIters: maxIters, ConvergenceWindow: maxIters,
			Obs: obs.NewSEObserver(opts.Obs),
		})
		_, trace, err := se.Solve(in.Clone())
		if err != nil {
			return FigureResult{}, fmt.Errorf("gamma %d: %w", gamma, err)
		}
		ys, err := metrics.Resample(trace, grid)
		if err != nil {
			return FigureResult{}, err
		}
		s := Series{Label: fmt.Sprintf("Γ=%d", gamma)}
		for i, g := range grid {
			s.X = append(s.X, float64(g))
			s.Y = append(s.Y, ys[i])
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig9a exercises dynamic leave-and-rejoin handling with |I|=50, Ĉ=40K,
// α=1.5, Γ=1 (Fig. 9a): the utility dips when a committee fails and
// re-converges after it recovers.
func Fig9a(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	nShards := scaleInt(50, opts.Scale, 16)
	capacity := scaleInt(40_000, opts.Scale, 12_000)
	maxIters := scaleInt(3000, opts.Scale, 900)
	rng := randx.New(opts.Seed)
	in := paperInstance(rng, nShards, capacity, 1.5, 0.5)
	if err := in.Validate(); err != nil {
		return FigureResult{}, err
	}

	// Fail the largest arrived shard a third of the way in (stragglers
	// are never candidates); it recovers at two thirds.
	target := -1
	for _, i := range in.Arrived() {
		if target < 0 || in.Sizes[i] > in.Sizes[target] {
			target = i
		}
	}
	if target < 0 {
		return FigureResult{}, core.ErrNoCandidates
	}
	events := []core.Event{
		{AtIteration: maxIters / 3, Kind: core.EventLeave, Index: target},
		{AtIteration: 2 * maxIters / 3, Kind: core.EventJoin, Index: target,
			Size: in.Sizes[target], Latency: in.Latencies[target]},
	}
	se := core.NewSE(core.SEConfig{Seed: opts.Seed, Gamma: 1, MaxIters: maxIters, Obs: obs.NewSEObserver(opts.Obs)})
	_, trace, err := se.SolveOnline(in.Clone(), events)
	if err != nil {
		return FigureResult{}, err
	}
	s := Series{Label: "SE"}
	for _, p := range trace {
		s.X = append(s.X, float64(p.Iteration))
		s.Y = append(s.Y, p.Utility)
	}
	return FigureResult{
		ID:     "9a",
		Title:  "Dynamic leave & rejoin of a committee",
		XLabel: "iteration",
		YLabel: "best utility",
		Series: []Series{s},
		Notes: []string{
			fmt.Sprintf("|I|=%d capacity=%d alpha=1.5 gamma=1; leave@%d rejoin@%d (shard %d)",
				nShards, capacity, maxIters/3, 2*maxIters/3, target),
		},
	}, nil
}

// Fig9b exercises consecutive joins with |I|=100, Ĉ=80K, α=1.5, Γ=1
// (Fig. 9b): the chain re-converges within a few hundred iterations after
// each join.
func Fig9b(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	nShards := scaleInt(100, opts.Scale, 20)
	capacity := scaleInt(80_000, opts.Scale, 16_000)
	maxIters := scaleInt(4000, opts.Scale, 1200)
	rng := randx.New(opts.Seed)
	// Start with 80% of the committees; the rest join consecutively.
	start := nShards * 4 / 5
	full := paperInstance(rng, nShards, capacity, 1.5, 0)
	if err := full.Validate(); err != nil {
		return FigureResult{}, err
	}
	in := core.Instance{
		Sizes:     append([]int(nil), full.Sizes[:start]...),
		Latencies: append([]float64(nil), full.Latencies[:start]...),
		DDL:       full.DDL,
		Alpha:     full.Alpha,
		Capacity:  full.Capacity,
		Nmin:      start / 2,
	}
	var events []core.Event
	joiners := nShards - start
	for k := 0; k < joiners; k++ {
		lat := full.Latencies[start+k]
		if lat > full.DDL {
			lat = full.DDL // joiners arrive inside the admission window
		}
		events = append(events, core.Event{
			AtIteration: (k + 1) * maxIters / (joiners + 2),
			Kind:        core.EventJoin,
			Index:       -1,
			Size:        full.Sizes[start+k],
			Latency:     lat,
		})
	}
	se := core.NewSE(core.SEConfig{Seed: opts.Seed, Gamma: 1, MaxIters: maxIters, Obs: obs.NewSEObserver(opts.Obs)})
	_, trace, err := se.SolveOnline(in, events)
	if err != nil {
		return FigureResult{}, err
	}
	s := Series{Label: "SE"}
	for _, p := range trace {
		s.X = append(s.X, float64(p.Iteration))
		s.Y = append(s.Y, p.Utility)
	}
	return FigureResult{
		ID:     "9b",
		Title:  "Consecutive committee joins",
		XLabel: "iteration",
		YLabel: "best utility",
		Series: []Series{s},
		Notes: []string{
			fmt.Sprintf("start=%d committees, %d joins, capacity=%d", start, joiners, capacity),
		},
	}, nil
}

// Fig10 compares the Valuable Degree of the four algorithms with |I|=500,
// Ĉ=500K, α=1.5, Γ=25 (Fig. 10).
func Fig10(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	nShards := scaleInt(500, opts.Scale, 30)
	capacity := scaleInt(500_000, opts.Scale, 30_000)
	maxIters := 20 * nShards
	rng := randx.New(opts.Seed)
	in := paperInstance(rng, nShards, capacity, 1.5, 0)
	if err := in.Validate(); err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{
		ID:     "10",
		Title:  "Valuable Degree of the chosen committees",
		XLabel: "algorithm index",
		YLabel: "valuable degree (Σ s_i / Π_i)",
		Notes: []string{
			fmt.Sprintf("|I|=%d capacity=%d alpha=1.5 gamma=25", nShards, capacity),
		},
	}
	for idx, s := range solverSet(opts.Seed, 25, maxIters, opts.Obs) {
		sol, _, err := s.Solve(in.Clone())
		if err != nil {
			return FigureResult{}, fmt.Errorf("%s: %w", s.Name(), err)
		}
		res.Series = append(res.Series, Series{
			Label: s.Name(),
			X:     []float64{float64(idx)},
			Y:     []float64{metrics.ValuableDegree(&in, sol)},
		})
	}
	return res, nil
}

// convergenceComparison runs all four algorithms on one instance and
// returns their resampled convergence curves plus converged utilities.
func convergenceComparison(opts Options, in core.Instance, gamma, maxIters int) ([]Series, map[string]float64, error) {
	grid := metrics.Grid(maxIters, 50)
	var series []Series
	finals := make(map[string]float64)
	for _, s := range solverSet(opts.Seed, gamma, maxIters, opts.Obs) {
		sol, trace, err := s.Solve(in.Clone())
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Name(), err)
		}
		ys, err := metrics.Resample(trace, grid)
		if err != nil {
			return nil, nil, err
		}
		out := Series{Label: s.Name()}
		for i, g := range grid {
			out.X = append(out.X, float64(g))
			out.Y = append(out.Y, ys[i])
		}
		series = append(series, out)
		finals[s.Name()] = sol.Utility
	}
	return series, finals, nil
}

// Fig11 compares convergence across |I| ∈ {500, 800, 1000} with
// Ĉ = 1000·|I|, α=1.5, Γ=10 (Fig. 11): SE converges 20–30% above the
// baselines and the gap widens with |I|.
func Fig11(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{
		ID:     "11",
		Title:  "Convergence while varying |I|",
		XLabel: "iteration",
		YLabel: "utility",
	}
	for _, size := range []int{500, 800, 1000} {
		nShards := scaleInt(size, opts.Scale, 30)
		capacity := nShards * 1000
		maxIters := 40 * nShards // budget scales with the state space
		rng := randx.New(opts.Seed + int64(size))
		in := paperInstance(rng, nShards, capacity, 1.5, 0)
		series, finals, err := convergenceComparison(opts, in, 10, maxIters)
		if err != nil {
			return FigureResult{}, fmt.Errorf("|I|=%d: %w", size, err)
		}
		for _, s := range series {
			s.Label = fmt.Sprintf("|I|=%d/%s", size, s.Label)
			res.Series = append(res.Series, s)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"|I|=%d: SE=%.0f SA=%.0f DP=%.0f WOA=%.0f",
			nShards, finals["SE"], finals["SA"], finals["DP"], finals["WOA"]))
	}
	return res, nil
}

// Fig12 compares convergence across α ∈ {1.5, 5, 10} with |I|=50, Ĉ=50K,
// Γ=25 (Fig. 12): utilities grow with α and SE keeps the lead.
func Fig12(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{
		ID:     "12",
		Title:  "Convergence while varying alpha",
		XLabel: "iteration",
		YLabel: "utility",
	}
	nShards := scaleInt(50, opts.Scale, 16)
	capacity := scaleInt(50_000, opts.Scale, 16_000)
	maxIters := scaleInt(3000, opts.Scale, 900)
	for _, alpha := range []float64{1.5, 5, 10} {
		rng := randx.New(opts.Seed)
		in := paperInstance(rng, nShards, capacity, alpha, 0)
		series, finals, err := convergenceComparison(opts, in, 25, maxIters)
		if err != nil {
			return FigureResult{}, fmt.Errorf("alpha=%g: %w", alpha, err)
		}
		for _, s := range series {
			s.Label = fmt.Sprintf("α=%g/%s", alpha, s.Label)
			res.Series = append(res.Series, s)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"alpha=%g: SE=%.0f SA=%.0f DP=%.0f WOA=%.0f",
			alpha, finals["SE"], finals["SA"], finals["DP"], finals["WOA"]))
	}
	return res, nil
}

// Fig13 reports the distribution of converged utilities over repeated runs
// for α ∈ {1.5, 5, 10}, |I|=50, Ĉ=50K, Γ=25 (Fig. 13's box plots). Series
// Y values are [min, Q1, median, Q3, max] at X = [0..4].
func Fig13(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{
		ID:     "13",
		Title:  "Distribution of converged utilities",
		XLabel: "box statistic (0=min 1=Q1 2=median 3=Q3 4=max)",
		YLabel: "utility",
	}
	nShards := scaleInt(50, opts.Scale, 16)
	capacity := scaleInt(50_000, opts.Scale, 16_000)
	maxIters := scaleInt(2500, opts.Scale, 700)
	repeats := scaleInt(10, opts.Scale, 4)
	for _, alpha := range []float64{1.5, 5, 10} {
		rng := randx.New(opts.Seed)
		in := paperInstance(rng, nShards, capacity, alpha, 0)
		perAlgo := make(map[string][]float64)
		for rep := 0; rep < repeats; rep++ {
			for _, s := range solverSet(opts.Seed+int64(rep*131), 25, maxIters, opts.Obs) {
				sol, _, err := s.Solve(in.Clone())
				if err != nil {
					return FigureResult{}, fmt.Errorf("alpha=%g rep=%d %s: %w", alpha, rep, s.Name(), err)
				}
				perAlgo[s.Name()] = append(perAlgo[s.Name()], sol.Utility)
			}
		}
		for _, name := range []string{"SE", "SA", "DP", "WOA"} {
			box, err := stats.Box(perAlgo[name])
			if err != nil {
				return FigureResult{}, err
			}
			res.Series = append(res.Series, Series{
				Label: fmt.Sprintf("α=%g/%s", alpha, name),
				X:     []float64{0, 1, 2, 3, 4},
				Y:     []float64{box.Min, box.Q1, box.Median, box.Q3, box.Max},
			})
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("repeats per algorithm: %d", repeats))
	return res, nil
}

// Fig14 runs the online case with 23 consecutive joining events for
// α ∈ {1.5, 5, 10}, |I|=50, Ĉ=40K, Γ=25 (Fig. 14). SE handles the events
// online (SolveOnline); the offline baselines re-solve on the final
// candidate set, which is the strongest possible showing for them.
func Fig14(opts Options) (FigureResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return FigureResult{}, err
	}
	res := FigureResult{
		ID:     "14",
		Title:  "Online execution with consecutive joining events",
		XLabel: "alpha",
		YLabel: "converged utility",
	}
	nShards := scaleInt(50, opts.Scale, 20)
	capacity := scaleInt(40_000, opts.Scale, 16_000)
	maxIters := scaleInt(4000, opts.Scale, 1200)
	joiners := scaleInt(23, opts.Scale, 8)
	start := nShards - joiners
	if start < 4 {
		start = 4
	}
	utilities := make(map[string][]float64)
	alphas := []float64{1.5, 5, 10}
	for _, alpha := range alphas {
		rng := randx.New(opts.Seed)
		full := paperInstance(rng, nShards, capacity, alpha, 0)
		if err := full.Validate(); err != nil {
			return FigureResult{}, err
		}
		full.Nmin = nShards / 2
		in := core.Instance{
			Sizes:     append([]int(nil), full.Sizes[:start]...),
			Latencies: append([]float64(nil), full.Latencies[:start]...),
			DDL:       full.DDL,
			Alpha:     full.Alpha,
			Capacity:  full.Capacity,
			Nmin:      start / 2,
		}
		var events []core.Event
		for k := 0; k < nShards-start; k++ {
			lat := full.Latencies[start+k]
			if lat > full.DDL {
				lat = full.DDL
			}
			events = append(events, core.Event{
				AtIteration: (k + 1) * maxIters / (nShards - start + 2),
				Kind:        core.EventJoin,
				Index:       -1,
				Size:        full.Sizes[start+k],
				Latency:     lat,
			})
		}
		se := core.NewSE(core.SEConfig{Seed: opts.Seed, Gamma: 25, MaxIters: maxIters, Obs: obs.NewSEObserver(opts.Obs)})
		seSol, _, err := se.SolveOnline(in.Clone(), events)
		if err != nil {
			return FigureResult{}, fmt.Errorf("alpha=%g SE online: %w", alpha, err)
		}
		utilities["SE"] = append(utilities["SE"], seSol.Utility)
		// Offline baselines on the final candidate set.
		finalIn := full.Clone()
		for _, s := range solverSet(opts.Seed, 25, maxIters, opts.Obs)[1:] {
			sol, _, err := s.Solve(finalIn.Clone())
			if err != nil {
				return FigureResult{}, fmt.Errorf("alpha=%g %s: %w", alpha, s.Name(), err)
			}
			utilities[s.Name()] = append(utilities[s.Name()], sol.Utility)
		}
	}
	for _, name := range []string{"SE", "SA", "DP", "WOA"} {
		s := Series{Label: name}
		for i, a := range alphas {
			s.X = append(s.X, a)
			s.Y = append(s.Y, utilities[name][i])
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d committees start, %d join online, capacity=%d, Nmin=50%%", start, nShards-start, capacity))
	return res, nil
}
