package seobs

import (
	"math"
	"testing"

	"mvcom/internal/obs"
)

// bindSmall binds a hand-built K=2 run where the Gibbs target is exactly
// uniform over the two cardinality-1 states, so every d_TV value in the
// tests is computable by hand.
func bindSmall(d *Diag) {
	d.Bind(RunInfo{
		K:        2,
		Gamma:    1,
		BetaEff:  1.0,
		Capacity: 10,
		Nmin:     1,
		Sizes:    []int{1, 1},
		Values:   []float64{0, 0}, // equal values: uniform conditional target
		Cards:    []int{1},
	})
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Epsilon != 0.01 || c.MaxWindows != 512 || c.MaxTVShards != 15 ||
		c.MaxUtilitySamples != 4096 || c.MaxAutocorrLag != 64 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	c = Config{Epsilon: 0.2, MaxWindows: 7, MaxTVShards: 9, MaxUtilitySamples: 16, MaxAutocorrLag: 3}.withDefaults()
	if c.Epsilon != 0.2 || c.MaxWindows != 7 || c.MaxTVShards != 9 ||
		c.MaxUtilitySamples != 16 || c.MaxAutocorrLag != 3 {
		t.Fatalf("explicit values overridden: %+v", c)
	}
}

func TestTargetEnumeration(t *testing.T) {
	d := New(Config{})
	d.Bind(RunInfo{
		K:        3,
		Gamma:    2,
		BetaEff:  1.0,
		Capacity: 3,
		Sizes:    []int{1, 1, 1},
		Values:   []float64{1, 2, 3},
		Cards:    []int{1, 2},
	})
	if !d.TracksVisits() {
		t.Fatal("estimator should be live on a 3-shard instance")
	}
	snap := d.Snapshot()
	if snap.DTV == nil || !snap.DTV.Enabled {
		t.Fatal("DTV snapshot missing")
	}
	// Cardinality 1..2 states under capacity 3: three singletons, three
	// pairs; the full set has no thread and is excluded.
	if snap.DTV.States != 6 {
		t.Fatalf("states = %d, want 6", snap.DTV.States)
	}
	// Gibbs mode: the pair {1,2} with utility 5.
	if snap.DTV.ModeMask != 0b110 || snap.DTV.ModeUtility != 5 {
		t.Fatalf("mode = %#b / %v, want 0b110 / 5", snap.DTV.ModeMask, snap.DTV.ModeUtility)
	}
	// No samples yet: every class counts its full weight, estimate is 1.
	if snap.DTV.Estimate != 1 {
		t.Fatalf("estimate with no samples = %v, want 1", snap.DTV.Estimate)
	}
	// The cardinality marginal must sum to 1 across the breakdown.
	var wsum float64
	for _, c := range snap.DTV.PerCardinality {
		wsum += c.Weight
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("cardinality weights sum to %v, want 1", wsum)
	}
}

func TestTargetDisabledCases(t *testing.T) {
	d := New(Config{MaxTVShards: 4})
	// Too many shards.
	d.Bind(RunInfo{K: 5, Sizes: make([]int, 5), Values: make([]float64, 5), Cards: []int{1, 2, 3, 4}})
	if d.TracksVisits() {
		t.Fatal("estimator live beyond MaxTVShards")
	}
	// A thread layout covering only some cardinalities keeps the estimator
	// live, conditioned on the covered cardinality classes.
	d.Bind(RunInfo{K: 3, Capacity: 10, Sizes: []int{1, 1, 1}, Values: []float64{1, 2, 3}, Cards: []int{1}})
	if !d.TracksVisits() {
		t.Fatal("estimator dead under a banded thread layout")
	}
	if s := d.Snapshot(); s.DTV == nil || s.DTV.States != 3 {
		t.Fatalf("banded target should cover the 3 singletons, got %+v", s.DTV)
	}
	// No thread layout at all disables it.
	d.Bind(RunInfo{K: 3, Capacity: 10, Sizes: []int{1, 1, 1}, Values: []float64{1, 2, 3}})
	if d.TracksVisits() {
		t.Fatal("estimator live with no thread layout")
	}
	// K < 2.
	d.Bind(RunInfo{K: 1, Sizes: []int{1}, Values: []float64{1}})
	if d.TracksVisits() {
		t.Fatal("estimator live on a single-shard instance")
	}
	// No feasible state at all (capacity 0).
	d.Bind(RunInfo{K: 2, Capacity: 0, Sizes: []int{1, 1}, Values: []float64{1, 2}, Cards: []int{1}})
	if d.TracksVisits() {
		t.Fatal("estimator live with an empty feasible space")
	}
	if s := d.Snapshot(); s.DTV != nil {
		t.Fatal("DTV snapshot present while disabled")
	}
}

func TestDTVFromProbeSamples(t *testing.T) {
	d := New(Config{})
	bindSmall(d)
	p := d.NewProbe(0, 1)
	if !p.TracksVisits() {
		t.Fatal("probe should track visits")
	}
	p.SetThread(0, 0b01, true)
	p.RecordRound(1) // one dwell sample at state {0}
	d.Flush(FlushArgs{From: 0, To: 1, BestUtility: 0, HaveBest: true})

	snap := d.Snapshot()
	if snap.DTV.Samples != 1 {
		t.Fatalf("samples = %d, want 1", snap.DTV.Samples)
	}
	// Empirical [1, 0] vs uniform [1/2, 1/2]: d_TV = 1/2.
	if math.Abs(snap.DTV.Estimate-0.5) > 1e-12 {
		t.Fatalf("estimate = %v, want 0.5", snap.DTV.Estimate)
	}

	// One more dwell sample at the other state balances it out exactly.
	p2 := d.probeFor(t)
	p2.SetThread(0, 0b10, true)
	p2.RecordRound(1)
	d.Flush(FlushArgs{From: 1, To: 2, BestUtility: 0, HaveBest: true})
	snap = d.Snapshot()
	if snap.DTV.Samples != 2 {
		t.Fatalf("samples = %d, want 2", snap.DTV.Samples)
	}
	if snap.DTV.Estimate != 0 {
		t.Fatalf("estimate = %v, want 0 for a perfectly balanced sample", snap.DTV.Estimate)
	}
}

// probeFor returns the Diag's live probe (the tests reuse the one
// registered by NewProbe; a second NewProbe call would double-drain).
func (d *Diag) probeFor(t *testing.T) *Probe {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.probes) == 0 {
		t.Fatal("no probe registered")
	}
	return d.probes[0]
}

func TestRecordSwapMaintainsMask(t *testing.T) {
	d := New(Config{})
	bindSmall(d)
	p := d.NewProbe(0, 1)
	p.SetThread(0, 0b01, true)
	// Swap position 0 out, position 1 in: mask becomes 0b10.
	p.RecordSwap(0, 0, 1, 3.5)
	p.RecordRound(1)
	d.Flush(FlushArgs{From: 0, To: 1})
	d.mu.Lock()
	v1, v2 := d.visits[0b01], d.visits[0b10]
	d.mu.Unlock()
	if v1 != 0 || v2 != 1 {
		t.Fatalf("visits after swap = {%v, %v}, want {0, 1}", v1, v2)
	}
}

func TestTimeToEps(t *testing.T) {
	d := New(Config{Epsilon: 0.1})
	d.Bind(RunInfo{K: 2, Gamma: 1})
	d.RecordImprovement(10, 50)
	d.RecordImprovement(100, 91)
	d.RecordImprovement(200, 99)
	d.RecordImprovement(300, 100)
	// Final 100, band 10, threshold 90: the last level below it is 50 at
	// round 10, so the run entered the band at the next level, round 100.
	if got := d.Snapshot().TimeToEpsRounds; got != 100 {
		t.Fatalf("time-to-eps = %d, want 100", got)
	}

	// Monotone guard: a non-improving report must not extend the history.
	d.RecordImprovement(400, 99)
	if got := d.Snapshot().Improvements; got != 4 {
		t.Fatalf("improvements = %d, want 4 after a non-improving report", got)
	}

	// All history inside the band: entered at the earliest level.
	d.Bind(RunInfo{K: 2})
	d.RecordImprovement(5, 95)
	d.RecordImprovement(50, 100)
	if got := d.Snapshot().TimeToEpsRounds; got != 5 {
		t.Fatalf("time-to-eps = %d, want 5 when never outside the band", got)
	}

	// No best at all: -1.
	d.Bind(RunInfo{K: 2})
	if got := d.Snapshot().TimeToEpsRounds; got != -1 {
		t.Fatalf("time-to-eps = %d, want -1 before any best", got)
	}
}

func TestRecordEventForcesHistoryLevel(t *testing.T) {
	d := New(Config{Epsilon: 0.01})
	d.Bind(RunInfo{K: 2, Gamma: 1})
	d.RecordImprovement(10, 100)
	// A leave drops the best to 80; the re-convergence climbs back to 100.
	d.RecordEvent(500, "leave", 3, 80, true)
	d.RecordImprovement(600, 100)

	snap := d.Snapshot()
	if len(snap.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(snap.Events))
	}
	ev := snap.Events[0]
	if ev.Round != 500 || ev.Kind != "leave" || ev.Index != 3 || ev.BestAfter != 80 {
		t.Fatalf("unexpected event mark %+v", ev)
	}
	// The dip level was forced into the history, so time-to-ε tracks the
	// re-convergence (round 600), not the pre-event climb (round 10).
	if snap.TimeToEpsRounds != 600 {
		t.Fatalf("time-to-eps = %d, want 600 (post-event)", snap.TimeToEpsRounds)
	}
}

func TestAutocorrKnownSeries(t *testing.T) {
	// Constant series: zero variance, defined as lag1=0, τ_int=1.
	d := New(Config{})
	d.Bind(RunInfo{K: 100, Gamma: 1}) // too large: visits off, util probe on
	p := d.NewProbe(0, 1)
	if p.TracksVisits() {
		t.Fatal("visit tracking unexpectedly on")
	}
	for i := 0; i < 16; i++ {
		p.RecordSwap(0, 0, 0, 7)
	}
	d.Flush(FlushArgs{From: 0, To: 16})
	snap := d.Snapshot()
	if snap.UtilitySamples != 16 || snap.AutocorrLag1 != 0 || snap.IntegratedAutocorrTime != 1 {
		t.Fatalf("constant series: lag1=%v tau=%v n=%d, want 0/1/16",
			snap.AutocorrLag1, snap.IntegratedAutocorrTime, snap.UtilitySamples)
	}

	// Alternating series: strongly negative lag-1, truncated τ_int = 1.
	d.Bind(RunInfo{K: 100, Gamma: 1})
	p = d.NewProbe(0, 1)
	for i := 0; i < 64; i++ {
		p.RecordSwap(0, 0, 0, float64(i%2))
	}
	d.Flush(FlushArgs{From: 0, To: 64})
	snap = d.Snapshot()
	if snap.AutocorrLag1 >= 0 {
		t.Fatalf("alternating series lag1 = %v, want < 0", snap.AutocorrLag1)
	}
	if snap.IntegratedAutocorrTime != 1 {
		t.Fatalf("alternating series tau = %v, want 1 (Geyer truncation)", snap.IntegratedAutocorrTime)
	}

	// Slowly varying series: positive lag-1, τ_int > 1.
	d.Bind(RunInfo{K: 100, Gamma: 1})
	p = d.NewProbe(0, 1)
	for i := 0; i < 256; i++ {
		p.RecordSwap(0, 0, 0, math.Sin(float64(i)/40))
	}
	d.Flush(FlushArgs{From: 0, To: 256})
	snap = d.Snapshot()
	if snap.AutocorrLag1 <= 0.5 {
		t.Fatalf("smooth series lag1 = %v, want > 0.5", snap.AutocorrLag1)
	}
	if snap.IntegratedAutocorrTime <= 1 {
		t.Fatalf("smooth series tau = %v, want > 1", snap.IntegratedAutocorrTime)
	}

	// Fewer than 8 samples: proxy undefined.
	d.Bind(RunInfo{K: 100, Gamma: 1})
	p = d.NewProbe(0, 1)
	for i := 0; i < 7; i++ {
		p.RecordSwap(0, 0, 0, float64(i))
	}
	d.Flush(FlushArgs{From: 0, To: 7})
	snap = d.Snapshot()
	if snap.UtilitySamples != 7 || snap.AutocorrLag1 != 0 || snap.IntegratedAutocorrTime != 0 {
		t.Fatalf("short series should leave the proxy unset: %+v", snap)
	}
}

func TestUtilityRingBounded(t *testing.T) {
	d := New(Config{MaxUtilitySamples: 32})
	d.Bind(RunInfo{K: 100, Gamma: 1})
	p := d.NewProbe(0, 1)
	for i := 0; i < 100; i++ {
		p.RecordSwap(0, 0, 0, float64(i))
	}
	d.Flush(FlushArgs{From: 0, To: 100})
	if n := d.Snapshot().UtilitySamples; n != 32 {
		t.Fatalf("utility samples = %d, want ring bound 32", n)
	}
}

func TestWindowRingBounded(t *testing.T) {
	d := New(Config{MaxWindows: 4})
	d.Bind(RunInfo{K: 2, Gamma: 1})
	for i := 0; i < 10; i++ {
		d.Flush(FlushArgs{From: i * 10, To: (i + 1) * 10, Swaps: 1, BestUtility: float64(i), HaveBest: true})
	}
	snap := d.Snapshot()
	if len(snap.Windows) > 4 {
		t.Fatalf("windows = %d, want <= 4", len(snap.Windows))
	}
	last := snap.Windows[len(snap.Windows)-1]
	if last.Round != 100 || last.BestUtility != 9 {
		t.Fatalf("newest window lost: %+v", last)
	}
	// Rates are per explorer-round within the window.
	if last.SwapAcceptRate != 0.1 {
		t.Fatalf("window accept rate = %v, want 0.1", last.SwapAcceptRate)
	}
}

func TestRebindKeepsCurveResetsEstimator(t *testing.T) {
	d := New(Config{})
	bindSmall(d)
	p := d.NewProbe(0, 1)
	p.SetThread(0, 0b01, true)
	p.RecordRound(1)
	d.Flush(FlushArgs{From: 0, To: 10, Swaps: 2, BestUtility: 1, HaveBest: true})
	d.RecordImprovement(5, 1)
	d.RecordEvent(10, "leave", 1, 0.5, true)

	d.Rebind(RunInfo{
		K: 2, Gamma: 1, BetaEff: 1, Capacity: 10,
		Sizes: []int{1, 1}, Values: []float64{0, 0}, Cards: []int{1},
	})
	snap := d.Snapshot()
	if len(snap.Windows) != 1 || len(snap.Events) != 1 || len(snap.History) == 0 {
		t.Fatalf("rebind dropped the curve: windows=%d events=%d history=%d",
			len(snap.Windows), len(snap.Events), len(snap.History))
	}
	if snap.DTV == nil || snap.DTV.Samples != 0 {
		t.Fatalf("rebind must restart the d_TV state, got %+v", snap.DTV)
	}
	if snap.Rounds != 10 || snap.Swaps != 2 {
		t.Fatalf("rebind dropped the cumulative tallies: %+v", snap)
	}
	// Old probes were dropped; the kernel must create fresh ones.
	d.mu.Lock()
	n := len(d.probes)
	d.mu.Unlock()
	if n != 0 {
		t.Fatalf("probes after rebind = %d, want 0", n)
	}
}

func TestNilProbeAndDisabledProbe(t *testing.T) {
	var p *Probe
	if p.TracksVisits() {
		t.Fatal("nil probe tracks visits")
	}
	p.SetThread(0, 1, true)
	p.RecordSwap(0, 0, 1, 2)
	p.RecordRound(1) // must not panic

	// Non-source explorer on a too-large instance: no probe at all.
	d := New(Config{})
	d.Bind(RunInfo{K: 100, Gamma: 2})
	if got := d.NewProbe(1, 3); got != nil {
		t.Fatalf("explorer 1 without visit tracking should get a nil probe, got %+v", got)
	}
}

func TestRegistryExports(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	d := New(Config{Registry: reg})
	fn := reg.DebugProvider("convergence")
	if fn == nil {
		t.Fatal("convergence debug provider not registered")
	}
	if _, ok := fn().(Snapshot); !ok {
		t.Fatalf("debug provider returned %T, want Snapshot", fn())
	}

	bindSmall(d)
	d.Flush(FlushArgs{From: 0, To: 10, Swaps: 4, Resets: 1, BestUtility: 3, HaveBest: true})
	if v := reg.Gauge("mvcom_se_diag_best_utility", "").Value(); v != 3 {
		t.Fatalf("best-utility gauge = %v, want 3", v)
	}
	if v := reg.Gauge("mvcom_se_diag_swap_accept_rate", "").Value(); v != 0.4 {
		t.Fatalf("accept-rate gauge = %v, want 0.4", v)
	}
	d.Snapshot()
	if v := reg.Gauge("mvcom_se_diag_dtv", "").Value(); v != 1 {
		t.Fatalf("d_TV gauge = %v, want 1 with no samples", v)
	}
	d.Finalize() // must emit the summary trace event without panicking
	events, _ := reg.Tracer().Snapshot()
	var sawWindow, sawSummary bool
	for _, e := range events {
		if e.Type == obs.EvConvergence {
			switch e.Detail {
			case "window":
				sawWindow = true
			case "summary":
				sawSummary = true
			}
		}
	}
	if !sawWindow || !sawSummary {
		t.Fatalf("missing convergence trace events (window=%v summary=%v)", sawWindow, sawSummary)
	}
}
