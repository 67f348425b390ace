package epoch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/metrics"
	"mvcom/internal/txgen"
)

// fastConfig keeps simulation sizes small so the full pipeline runs in
// milliseconds per epoch.
func fastConfig(committees int, seed int64) Config {
	return Config{
		Committees:    committees,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: committees * 4, MeanTxs: 800, MinTxs: 100, MaxTxs: 3000},
		Seed:          seed,
	}
}

func TestNewPipelineValidation(t *testing.T) {
	if _, err := NewPipeline(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewPipeline(Config{Committees: 2, CommitteeSize: 3}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("small committee: %v", err)
	}
	if _, err := NewPipeline(Config{Committees: 2, CommitteeSize: 4, FaultyPerCommittee: 2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("too many faulty: %v", err)
	}
}

func TestRunEpochEndToEnd(t *testing.T) {
	p, err := NewPipeline(fastConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	res, err := p.RunEpoch(SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 1, MaxIters: 600})}, 1.5, capacity, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("epoch %d", res.Epoch)
	}
	if len(res.Reports) != 10 {
		t.Fatalf("reports %d", len(res.Reports))
	}
	for _, rep := range res.Reports {
		if rep.TwoPhase != rep.Formation+rep.Consensus {
			t.Fatalf("two-phase accounting wrong: %+v", rep)
		}
		if rep.TwoPhase <= 0 || rep.TxCount <= 0 {
			t.Fatalf("degenerate report %+v", rep)
		}
	}
	if res.DDL <= 0 {
		t.Fatalf("ddl %v", res.DDL)
	}
	if res.Solution.Load > capacity {
		t.Fatalf("load %d over capacity %d", res.Solution.Load, capacity)
	}
	if res.Solution.Count < 3 {
		t.Fatalf("count %d below nmin", res.Solution.Count)
	}
	if res.FinalBlock == nil || res.FinalBlock.TxTotal != res.Solution.Load {
		t.Fatalf("final block %+v", res.FinalBlock)
	}
	if p.Chain().Height() != 1 {
		t.Fatalf("chain height %d", p.Chain().Height())
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunEpochNilScheduler(t *testing.T) {
	p, err := NewPipeline(fastConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunEpoch(nil, 1.5, 1000, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultiEpochCarryOver(t *testing.T) {
	p, err := NewPipeline(fastConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	// A tight capacity forces refusals, which must carry into epoch 2.
	capacity := p.Trace().TotalTxs() / 4
	r1, err := p.RunEpoch(AcceptAll{}, 1.5, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Deferred) == 0 {
		t.Skip("no refusals under this seed; carry-over untestable here")
	}
	for _, d := range r1.Deferred {
		if d.TwoPhase < 0 {
			t.Fatalf("negative residual latency %+v", d)
		}
	}
	r2, err := p.RunEpoch(AcceptAll{}, 1.5, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Reports) != 8+len(r1.Deferred) {
		t.Fatalf("epoch 2 reports %d, want %d + %d carried", len(r2.Reports), 8, len(r1.Deferred))
	}
	if p.Chain().Height() != 2 {
		t.Fatalf("chain height %d", p.Chain().Height())
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredLatencyReduced(t *testing.T) {
	p, err := NewPipeline(fastConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 4
	r1, err := p.RunEpoch(AcceptAll{}, 1.5, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r1.Deferred {
		orig := r1.Reports[indexOfCommittee(r1.Reports, d.Committee)]
		if d.TwoPhase >= orig.TwoPhase && orig.TwoPhase > 0 {
			t.Fatalf("deferred latency %v not reduced from %v (Fig. 3 semantics)",
				d.TwoPhase, orig.TwoPhase)
		}
	}
}

func TestSchedulersComparableOnSameEpoch(t *testing.T) {
	// SE should match or beat AcceptAll's utility on the same instance.
	p, err := NewPipeline(fastConfig(12, 5))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 3
	res, err := p.RunEpoch(AcceptAll{}, 1.5, capacity, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Instance.Clone()
	seSol, _, err := core.NewSE(core.SEConfig{Seed: 9, MaxIters: 2000}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if seSol.Utility < res.Solution.Utility {
		t.Fatalf("SE %.1f below AcceptAll %.1f", seSol.Utility, res.Solution.Utility)
	}
}

func TestMeasureProducesFig2Inputs(t *testing.T) {
	p, err := NewPipeline(fastConfig(10, 6))
	if err != nil {
		t.Fatal(err)
	}
	reports, ddl, err := p.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 10 || ddl <= 0 {
		t.Fatalf("reports %d ddl %v", len(reports), ddl)
	}
	arrived := 0
	formationDominates := 0
	for _, r := range reports {
		if r.Arrived {
			arrived++
		}
		if r.Formation > r.Consensus {
			formationDominates++
		}
	}
	// Nmax=0.8: at least 80% must be inside the window.
	if arrived < 8 {
		t.Fatalf("arrived %d, want >= 8", arrived)
	}
	// Fig. 2a: formation latency dominates consensus latency.
	if formationDominates < 8 {
		t.Fatalf("formation dominated in only %d of 10 committees", formationDominates)
	}
}

func TestFormationGrowsWithNetworkSize(t *testing.T) {
	// Fig. 2a: mean formation latency increases with the number of nodes.
	mean := func(committees int, seed int64) float64 {
		cfg := fastConfig(committees, seed)
		cfg.CommitteeSize = 8
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports, _, err := p.Measure()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range reports {
			sum += r.Formation.Seconds()
		}
		return sum / float64(len(reports))
	}
	var small, large float64
	for s := int64(0); s < 3; s++ {
		small += mean(5, s)
		large += mean(40, s)
	}
	if large <= small {
		t.Fatalf("formation latency did not grow with network size: %0.f vs %0.f", small, large)
	}
}

func TestAcceptAllRespectsCapacity(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{100, 200, 300},
		Latencies: []float64{700, 800, 900},
		Alpha:     1.5,
		Capacity:  450,
	}
	sol, err := AcceptAll{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Load > 450 {
		t.Fatalf("load %d", sol.Load)
	}
}

func TestSolverSchedulerAdaptsBaselines(t *testing.T) {
	p, err := NewPipeline(fastConfig(8, 7))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	for _, s := range []core.Solver{
		baseline.Greedy{},
		baseline.SA{Seed: 7, Iterations: 1000},
	} {
		res, err := p.RunEpoch(SolverScheduler{Solver: s}, 1.5, capacity, 2)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Solution.Load > capacity {
			t.Fatalf("%s violated capacity", s.Name())
		}
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeAccounting(t *testing.T) {
	p, err := NewPipeline(fastConfig(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	res, err := p.RunEpoch(SolverScheduler{Solver: baseline.Greedy{}}, 1.5, capacity, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := metrics.Outcome(res.Epoch, &res.Instance, res.Solution)
	if o.PermittedTxs != res.Solution.Load {
		t.Fatalf("outcome txs %d != load %d", o.PermittedTxs, res.Solution.Load)
	}
	if tput := float64(o.PermittedTxs) / o.DDL; tput <= 0 {
		t.Fatalf("throughput %v", tput)
	}
	if o.CumulativeAge < 0 {
		t.Fatalf("negative cumulative age %v", o.CumulativeAge)
	}
}

func TestPipelineDeterministicPerSeed(t *testing.T) {
	run := func() (float64, int) {
		p, err := NewPipeline(fastConfig(8, 11))
		if err != nil {
			t.Fatal(err)
		}
		capacity := p.Trace().TotalTxs() / 2
		res, err := p.RunEpoch(SolverScheduler{Solver: baseline.Greedy{}}, 1.5, capacity, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.Solution.Utility, res.Solution.Load
	}
	u1, l1 := run()
	u2, l2 := run()
	if u1 != u2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%v,%d) vs (%v,%d)", u1, l1, u2, l2)
	}
}

func indexOfCommittee(reports []CommitteeReport, id int) int {
	for i, r := range reports {
		if r.Committee == id {
			return i
		}
	}
	return -1
}

func TestRunEpochsHelper(t *testing.T) {
	p, err := NewPipeline(fastConfig(6, 20))
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	results, err := p.RunEpochs(3, AcceptAll{}, 1.5, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results %d", len(results))
	}
	for i, res := range results {
		if res.Epoch != i+1 {
			t.Fatalf("epoch numbering %d at %d", res.Epoch, i)
		}
	}
	if p.Chain().Height() != 3 {
		t.Fatalf("chain height %d", p.Chain().Height())
	}
	if _, err := p.RunEpochs(0, AcceptAll{}, 1.5, capacity, 0); err != ErrNoEpochs {
		t.Fatalf("err = %v", err)
	}

	// Returned results and Measure reports belong to the caller: the
	// epochs after them must not rewrite them through pipeline scratch.
	// Full capacity drains the deferral backlog, so the live set shrinks
	// and the later epochs reuse the scratch the kept results came from.
	capacity = p.Trace().TotalTxs()
	reports, _, err := p.Measure()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() string {
		s := fmt.Sprintf("%+v", reports)
		for _, res := range results {
			s += fmt.Sprintf(" %+v", *res)
		}
		return s
	}
	before := snapshot()
	last, err := p.RunEpoch(AcceptAll{}, 1.5, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, last)
	before += fmt.Sprintf(" %+v", *last)
	if _, err := p.RunEpochs(2, AcceptAll{}, 1.5, capacity, 0); err != nil {
		t.Fatal(err)
	}
	if after := snapshot(); after != before {
		t.Fatalf("later epochs rewrote earlier results:\nbefore %s\nafter  %s", before, after)
	}
}

func TestFailureInjectionExcludesCommittees(t *testing.T) {
	cfg := fastConfig(12, 21)
	cfg.FaultInjector = failEach(t, 0.4, 21)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := p.Trace().TotalTxs() / 2
	res, err := p.RunEpoch(AcceptAll{}, 1.5, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, rep := range res.Reports {
		if rep.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Skip("no failures sampled under this seed")
	}
	if len(res.Live)+len(res.Presolved)+failed != len(res.Reports) {
		t.Fatalf("live %d + presolved %d + failed %d != reports %d",
			len(res.Live), len(res.Presolved), failed, len(res.Reports))
	}
	// Every live index references a non-failed report, and the instance
	// mirrors it.
	for li, ri := range res.Live {
		if res.Reports[ri].Failed {
			t.Fatalf("live index %d points at failed committee", li)
		}
		if res.Instance.Sizes[li] != res.Reports[ri].TxCount {
			t.Fatalf("instance size mismatch at live %d", li)
		}
	}
	if err := p.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureInjectionDeterministic(t *testing.T) {
	run := func() int {
		cfg := fastConfig(12, 23)
		cfg.FaultInjector = failEach(t, 0.3, 23)
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunEpoch(AcceptAll{}, 1.5, p.Trace().TotalTxs()/2, 0)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, rep := range res.Reports {
			if rep.Failed {
				failed++
			}
		}
		return failed
	}
	if run() != run() {
		t.Fatal("failure injection not deterministic per seed")
	}
}

// TestRunEpochsFailureGolden pins a six-epoch SE run under committee
// failures and Byzantine replicas: each epoch's failed and permitted
// committees, and the chain tip, whose hash covers every block's
// timestamp (the last committee's formation time plus the deadline).
// A change to the committees' formation order, the injector's failure
// draws or the timestamps fails here.
func TestRunEpochsFailureGolden(t *testing.T) {
	cfg := fastConfig(8, 41)
	cfg.FaultInjector = failEach(t, 0.2, 41)
	cfg.FaultyPerCommittee = 1
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.RunEpochs(6, seScheduler(41), 1.5, p.Trace().TotalTxs()/2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"failed [] permitted [0 2 5 6]",
		"failed [3] permitted [0 2 4 5]",
		"failed [2] permitted [0 3 4 7]",
		"failed [3] permitted [2 4 5 6]",
		"failed [0] permitted [2 4 7]",
		"failed [5 6] permitted [1 2 6 7]",
	}
	if len(results) != len(want) {
		t.Fatalf("%d epochs, want %d", len(results), len(want))
	}
	for i, res := range results {
		var failed, permitted []int
		for _, rep := range res.Reports {
			if rep.Failed {
				failed = append(failed, rep.Committee)
			}
		}
		for li, sel := range res.Solution.Selected {
			if sel {
				permitted = append(permitted, res.Reports[res.Live[li]].Committee)
			}
		}
		if got := fmt.Sprintf("failed %v permitted %v", failed, permitted); got != want[i] {
			t.Errorf("epoch %d: %s, want %s", res.Epoch, got, want[i])
		}
	}
	const wantTip = "c65f337b79fac380fe83815fd24e567022e6582f8b1d057ac60f763e048192c6"
	if tip := p.Chain().TipHash().String(); tip != wantTip {
		t.Errorf("chain tip %s, want %s", tip, wantTip)
	}
}

func TestAdmissionDeadlineEdgeFractions(t *testing.T) {
	reports := []CommitteeReport{
		{TwoPhase: 400 * time.Second},
		{TwoPhase: 100 * time.Second},
		{TwoPhase: 300 * time.Second},
		{TwoPhase: 200 * time.Second},
	}
	tests := []struct {
		frac float64
		want time.Duration
	}{
		{0.25, 100 * time.Second}, // 1st of 4
		{0.5, 200 * time.Second},
		{0.75, 300 * time.Second},
		{1.0, 400 * time.Second},
		{0.01, 100 * time.Second}, // rounds up to the first arrival
	}
	for _, tt := range tests {
		if got := admissionDeadline(nil, reports, tt.frac); got != tt.want {
			t.Fatalf("frac %v: got %v want %v", tt.frac, got, tt.want)
		}
	}
	if got := admissionDeadline(nil, nil, 0.8); got != 0 {
		t.Fatalf("empty reports: %v", got)
	}
}
