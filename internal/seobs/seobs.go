// Package seobs is the convergence-diagnostics layer of the SE kernel:
// an online per-run diagnostic stream answering "is this run converging,
// and how fast" rather than "how many rounds did it step". A Diag
// collects
//
//   - a windowed utility time-series per solution thread f_n (one window
//     per kernel segment merge),
//   - the swap-acceptance and RESET rates,
//   - time-to-ε-of-best (rounds until the best utility last entered and
//     stayed within ε of its final value),
//   - on small instances, an empirical d_TV estimator between the
//     chain's sampled visit distribution and the Gibbs target
//     p* ∝ exp(β_eff·U_f) (see gibbs.go for the methodology), and
//   - a rolling mixing-time proxy: the autocorrelation of the winner
//     utility series U_f (lag-1 plus the integrated autocorrelation
//     time).
//
// The package follows the obs contracts: nil is off (every method is a
// no-op on a nil *Diag or *Probe, so an unconfigured kernel pays
// nothing), and the hot path stays plain (explorer goroutines append to
// private Probe buffers; the coordinator folds them into the Diag only
// at segment merges, under the same ≤3% budget ci.sh enforces for the
// SEObserver). Results are exported three ways: gauges/histograms on the
// obs registry, EvConvergence trace events, and a "convergence" debug
// provider that obs.Serve exposes as /debug/convergence.
//
// Layering: seobs sits between obs and core (core → seobs → obs), so it
// must not import internal/core; the kernel hands it plain slices.
package seobs

import (
	"math"
	"math/bits"
	"sync"

	"mvcom/internal/obs"
)

// Config tunes a Diag. The zero value is usable; Registry may be nil
// (diagnostics still accumulate and Snapshot still works, nothing is
// exported).
type Config struct {
	// Registry, when non-nil, receives the diagnostic gauges, the
	// swap-acceptance histogram, EvConvergence trace events, and the
	// "convergence" debug provider (served at /debug/convergence).
	Registry *obs.Registry
	// Epsilon is the relative band of time-to-ε-of-best: the diagnostic
	// reports the round after which the best utility stayed within
	// Epsilon·|final best| of the final best. Default 0.01.
	Epsilon float64
	// MaxWindows bounds the retained window ring. Default 512.
	MaxWindows int
	// MaxTVShards caps the candidate-set size for which the d_TV
	// estimator enumerates the Gibbs target (2^k states). Default 15.
	MaxTVShards int
	// MaxUtilitySamples bounds the winner-utility sample ring feeding
	// the autocorrelation proxy. Default 4096.
	MaxUtilitySamples int
	// MaxAutocorrLag bounds the lags summed into the integrated
	// autocorrelation time. Default 64.
	MaxAutocorrLag int
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.01
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 512
	}
	if c.MaxTVShards <= 0 {
		c.MaxTVShards = 15
	}
	if c.MaxUtilitySamples <= 0 {
		c.MaxUtilitySamples = 4096
	}
	if c.MaxAutocorrLag <= 0 {
		c.MaxAutocorrLag = 64
	}
	return c
}

// RunInfo is the kernel's description of one run, handed to Bind (and
// Rebind after every dynamic event).
type RunInfo struct {
	// K is the live candidate-set size |I|.
	K int
	// Gamma is the explorer count Γ.
	Gamma int
	// Beta is the configured β; BetaEff the effective (value-normalized)
	// β the transition rates actually use — the Gibbs target must be
	// built from BetaEff, not Beta.
	Beta, BetaEff float64
	// Capacity and Nmin are the instance constraints.
	Capacity, Nmin int
	// Sizes and Values are the per-candidate-position caches.
	Sizes  []int
	Values []float64
	// Cards are the thread cardinalities (one solution thread f_n per
	// entry).
	Cards []int
}

// ThreadPoint is one solution thread's utility inside a window.
type ThreadPoint struct {
	N       int     `json:"n"`
	Utility float64 `json:"utility"`
}

// Window is one segment-merge sample of the convergence state.
type Window struct {
	// Round is the transition round the window ends at.
	Round int `json:"round"`
	// BestUtility is the global best after the merge (NaN-safe: -Inf is
	// encoded as null by the snapshot writer, but the kernel always has
	// a best once any thread initialized).
	BestUtility float64 `json:"best_utility"`
	// SwapAcceptRate and ResetRate are the segment's per-explorer-round
	// rates.
	SwapAcceptRate float64 `json:"swap_accept_rate"`
	ResetRate      float64 `json:"reset_rate"`
	// Starved and RaceErrors count the segment's degenerate rounds:
	// proposal starvation (no armed swap) and failed winner picks.
	Starved    int64 `json:"starved,omitempty"`
	RaceErrors int64 `json:"race_errors,omitempty"`
	// Threads is the per-cardinality best utility across explorers —
	// the windowed f_n time-series.
	Threads []ThreadPoint `json:"threads,omitempty"`
}

// ImprovePoint is one global-best level in the improvement history.
type ImprovePoint struct {
	Round   int     `json:"round"`
	Utility float64 `json:"utility"`
}

// EventWarmStart is the EventMark kind recorded when a run is seeded
// from a previous epoch's solution (SE.SolveFrom). Like join/leave it
// resets the improvement-history level, so time-to-ε measures the
// re-convergence from the seeded state rather than the cold climb.
const EventWarmStart = "warm-start"

// EventMark records a dynamic join/leave applied mid-run.
type EventMark struct {
	Round int    `json:"round"`
	Kind  string `json:"kind"`
	Index int    `json:"index"`
	// BestAfter is the global best immediately after the event (the
	// bottom of the Theorem 2 dip for a leave).
	BestAfter float64 `json:"best_after"`
}

// CardTV is the d_TV estimate within one cardinality class.
type CardTV struct {
	N       int     `json:"n"`
	Weight  float64 `json:"weight"`
	Samples int64   `json:"samples"`
	TV      float64 `json:"tv"`
}

// DTVSnapshot is the empirical d_TV estimator's state.
type DTVSnapshot struct {
	Enabled bool `json:"enabled"`
	// States counts the feasible states of the enumerated Gibbs target;
	// Samples the dwell samples drawn so far (threads × rounds × Γ).
	States  int   `json:"states"`
	Samples int64 `json:"samples"`
	// Estimate is the aggregated d_TV (1 until samples arrive).
	Estimate       float64  `json:"estimate"`
	PerCardinality []CardTV `json:"per_cardinality,omitempty"`
	// ModeMask and ModeUtility identify the Gibbs target's most likely
	// state (tests cross-check it against the brute-force optimum).
	ModeMask    uint64  `json:"mode_mask"`
	ModeUtility float64 `json:"mode_utility"`
}

// Snapshot is the full diagnostic state, served at /debug/convergence.
type Snapshot struct {
	K       int     `json:"k"`
	Gamma   int     `json:"gamma"`
	Beta    float64 `json:"beta"`
	BetaEff float64 `json:"beta_eff"`
	Epsilon float64 `json:"epsilon"`

	Rounds         int64 `json:"rounds"`
	ExplorerRounds int64 `json:"explorer_rounds"`
	Swaps          int64 `json:"swaps"`
	Resets         int64 `json:"resets"`
	Improvements   int64 `json:"improvements"`
	// ProposalsStarved and RaceErrors are the run totals of degenerate
	// rounds (no armed proposal / failed winner pick).
	ProposalsStarved int64 `json:"proposals_starved,omitempty"`
	RaceErrors       int64 `json:"race_errors,omitempty"`

	BestUtility    float64 `json:"best_utility"`
	HaveBest       bool    `json:"have_best"`
	SwapAcceptRate float64 `json:"swap_accept_rate"`
	ResetRate      float64 `json:"reset_rate"`

	// TimeToEpsRounds is the round after which the best utility entered
	// (and stayed within) ε of its final value; -1 before any best.
	TimeToEpsRounds int `json:"time_to_eps_rounds"`

	// AutocorrLag1 and IntegratedAutocorrTime are the mixing-time proxy
	// over the winner-utility series; UtilitySamples is the sample count
	// behind them.
	AutocorrLag1           float64 `json:"autocorr_lag1"`
	IntegratedAutocorrTime float64 `json:"integrated_autocorr_time"`
	UtilitySamples         int     `json:"utility_samples"`

	DTV *DTVSnapshot `json:"dtv,omitempty"`

	// WarmStarts counts the EventWarmStart marks in Events (a serving
	// loop records one per warm-seeded epoch).
	WarmStarts int `json:"warm_starts,omitempty"`

	Windows []Window       `json:"windows"`
	History []ImprovePoint `json:"history"`
	Events  []EventMark    `json:"events,omitempty"`
}

// Diag accumulates convergence diagnostics for one SE run at a time.
// Bind resets it for a new run, so a single Diag can be reused across
// sequential solves (the benchmark loop does); concurrent runs must not
// share one.
type Diag struct {
	cfg Config

	mu   sync.Mutex
	info RunInfo

	// d_TV machinery (nil / empty when the instance is too large).
	target     []float64 // Gibbs target per mask, 0 for infeasible
	cardMarg   []float64 // target cardinality marginal, indexed by n
	modeMask   uint64
	modeUtil   float64
	tvStates   int
	visits     []float64 // dwell-weighted occupancy mass per mask
	cardVisits []float64 // dwell-weighted occupancy mass per cardinality
	cardCounts []int64   // raw round samples per cardinality

	probes []*Probe

	rounds, explorerRounds int64
	swaps, resets          int64
	starved, raceErrors    int64
	improvements           int64
	bestUtil               float64
	haveBest               bool
	history                []ImprovePoint
	events                 []EventMark
	windows                []Window
	utilRing               []float64
	utilNext, utilLen      int

	// exported instruments (nil without a registry — inert).
	gBest, gAcceptRate, gResetRate  *obs.Gauge
	gDTV, gAC1, gTauInt, gTimeToEps *obs.Gauge
	hAcceptRate                     *obs.Histogram
	tracer                          *obs.Tracer
}

// New builds a Diag and, when cfg.Registry is set, registers its
// instruments and the "convergence" debug provider.
func New(cfg Config) *Diag {
	d := &Diag{cfg: cfg.withDefaults(), bestUtil: math.Inf(-1)}
	if reg := cfg.Registry; reg != nil {
		d.gBest = reg.Gauge("mvcom_se_diag_best_utility", "convergence diagnostics: current global best utility")
		d.gAcceptRate = reg.Gauge("mvcom_se_diag_swap_accept_rate", "accepted swaps per explorer round (cumulative)")
		d.gResetRate = reg.Gauge("mvcom_se_diag_reset_rate", "RESET broadcasts per explorer round (cumulative)")
		d.gDTV = reg.Gauge("mvcom_se_diag_dtv", "empirical d_TV between sampled visits and the Gibbs target (small instances)")
		d.gAC1 = reg.Gauge("mvcom_se_diag_autocorr_lag1", "lag-1 autocorrelation of the winner utility series")
		d.gTauInt = reg.Gauge("mvcom_se_diag_mixing_proxy", "integrated autocorrelation time of the winner utility series (rounds)")
		d.gTimeToEps = reg.Gauge("mvcom_se_diag_time_to_eps_rounds", "rounds until the best utility stayed within epsilon of its final value")
		d.hAcceptRate = reg.Histogram("mvcom_se_diag_window_accept_rate", "per-window swap-acceptance rate", obs.LinearBuckets(0.05, 0.05, 19))
		d.tracer = reg.Tracer()
		reg.RegisterDebug("convergence", func() any { return d.Snapshot() })
	}
	return d
}

// Bind resets the Diag for a new run. Nil-safe.
func (d *Diag) Bind(info RunInfo) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.info = info
	d.rounds, d.explorerRounds, d.swaps, d.resets, d.improvements = 0, 0, 0, 0, 0
	d.starved, d.raceErrors = 0, 0
	d.bestUtil, d.haveBest = math.Inf(-1), false
	d.history = d.history[:0]
	d.events = d.events[:0]
	d.windows = d.windows[:0]
	d.utilRing = nil
	d.utilNext, d.utilLen = 0, 0
	d.probes = d.probes[:0]
	d.rebuildTargetLocked()
}

// Rebind refreshes the run description after a dynamic event: the d_TV
// state restarts against the new candidate set (the old mask space is
// meaningless), while the windows, history, and event marks are kept so
// the dip/re-convergence curve stays contiguous. The kernel must
// recreate every probe afterwards. Nil-safe.
func (d *Diag) Rebind(info RunInfo) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.info = info
	d.probes = d.probes[:0]
	d.rebuildTargetLocked()
}

// TracksVisits reports whether the d_TV estimator is live for the bound
// instance (small enough to enumerate). Nil-safe.
func (d *Diag) TracksVisits() bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.target != nil
}

// RecordImprovement appends a global-best improvement at the given
// round. Called by the coordinator's merge loop, never by explorer
// goroutines. Nil-safe.
func (d *Diag) RecordImprovement(round int, util float64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.haveBest && util <= d.bestUtil {
		return
	}
	d.bestUtil, d.haveBest = util, true
	d.improvements++
	d.history = append(d.history, ImprovePoint{Round: round, Utility: util})
}

// RecordEvent marks a dynamic join/leave at the given round together
// with the post-event global best. A leave typically lowers the best
// (the Theorem 2 dip); the history takes the new level so time-to-ε
// measures the re-convergence, not the pre-dip climb. Nil-safe.
func (d *Diag) RecordEvent(round int, kind string, index int, bestAfter float64, haveBest bool) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events = append(d.events, EventMark{Round: round, Kind: kind, Index: index, BestAfter: bestAfter})
	d.bestUtil, d.haveBest = bestAfter, haveBest
	if haveBest {
		d.history = append(d.history, ImprovePoint{Round: round, Utility: bestAfter})
	}
	if d.tracer != nil {
		d.tracer.Emit(obs.EvConvergence, "se", bestAfter, "event:"+kind)
	}
}

// FlushArgs carries one segment's tallies from the kernel coordinator.
type FlushArgs struct {
	// From and To delimit the segment's rounds (From, To].
	From, To int
	// Swaps and Resets are the segment's summed explorer tallies.
	Swaps, Resets int64
	// Starved and RaceErrors are the segment's degenerate-round tallies:
	// rounds with no armed swap proposal, and timer races that failed to
	// pick a winner.
	Starved, RaceErrors int64
	// BestUtility is the post-merge global best; HaveBest false means no
	// feasible solution yet.
	BestUtility float64
	HaveBest    bool
	// Threads is the per-cardinality best utility across explorers. The
	// slice is owned by the caller and copied.
	Threads []ThreadPoint
}

// Flush folds one segment into the diagnostics: drains the probes'
// private buffers (the explorer goroutines are quiescent between
// segments), appends a window, and refreshes the cheap gauges. Called
// once per segment merge by the coordinator. Nil-safe.
func (d *Diag) Flush(args FlushArgs) {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	segRounds := int64(args.To - args.From)
	if segRounds < 0 {
		segRounds = 0
	}
	gamma := int64(d.info.Gamma)
	if gamma < 1 {
		gamma = 1
	}
	d.rounds += segRounds
	d.explorerRounds += segRounds * gamma
	d.swaps += args.Swaps
	d.resets += args.Resets
	d.starved += args.Starved
	d.raceErrors += args.RaceErrors
	if args.HaveBest {
		d.bestUtil, d.haveBest = args.BestUtility, true
	}

	for _, p := range d.probes {
		d.drainProbeLocked(p)
	}

	w := Window{Round: args.To, BestUtility: args.BestUtility,
		Starved: args.Starved, RaceErrors: args.RaceErrors}
	if segEx := float64(segRounds * gamma); segEx > 0 {
		w.SwapAcceptRate = float64(args.Swaps) / segEx
		w.ResetRate = float64(args.Resets) / segEx
	}
	if len(args.Threads) > 0 {
		w.Threads = append([]ThreadPoint(nil), args.Threads...)
	}
	if len(d.windows) >= d.cfg.MaxWindows {
		// Drop the oldest half in one move instead of shifting per
		// window; the ring stays bounded at MaxWindows.
		keep := d.cfg.MaxWindows / 2
		copy(d.windows, d.windows[len(d.windows)-keep:])
		d.windows = d.windows[:keep]
	}
	d.windows = append(d.windows, w)

	d.gBest.Set(args.BestUtility)
	if d.explorerRounds > 0 {
		d.gAcceptRate.Set(float64(d.swaps) / float64(d.explorerRounds))
		d.gResetRate.Set(float64(d.resets) / float64(d.explorerRounds))
	}
	d.hAcceptRate.Observe(w.SwapAcceptRate)
	if d.tracer != nil {
		d.tracer.Emit(obs.EvConvergence, "se", args.BestUtility, "window")
	}
}

// drainProbeLocked folds one probe's private buffers into the Diag.
func (d *Diag) drainProbeLocked(p *Probe) {
	if p == nil {
		return
	}
	if d.visits != nil {
		for i, m := range p.visitBuf {
			if int(m) < len(d.visits) {
				w := p.weightBuf[i]
				n := bits.OnesCount32(m)
				d.visits[m] += w
				d.cardVisits[n] += w
				d.cardCounts[n]++
			}
		}
	}
	p.visitBuf = p.visitBuf[:0]
	p.weightBuf = p.weightBuf[:0]
	if len(p.utilBuf) > 0 {
		if d.utilRing == nil {
			d.utilRing = make([]float64, d.cfg.MaxUtilitySamples)
		}
		for _, u := range p.utilBuf {
			d.utilRing[d.utilNext] = u
			d.utilNext = (d.utilNext + 1) % len(d.utilRing)
			if d.utilLen < len(d.utilRing) {
				d.utilLen++
			}
		}
		p.utilBuf = p.utilBuf[:0]
	}
}

// Finalize computes the end-of-run estimators, refreshes the gauges, and
// emits the summary trace event. Called by the kernel when a solve
// loop ends; Engine users rely on Snapshot instead. Nil-safe.
func (d *Diag) Finalize() {
	if d == nil {
		return
	}
	s := d.Snapshot()
	if d.tracer != nil {
		v := s.BestUtility
		if s.DTV != nil && s.DTV.Samples > 0 {
			v = s.DTV.Estimate
		}
		d.tracer.Emit(obs.EvConvergence, "se", v, "summary")
	}
}

// Snapshot computes the live diagnostic state. Safe to call from any
// goroutine (the HTTP debug provider does) while the kernel is stepping:
// it only reads state the coordinator merged, never the probes' private
// buffers. It also refreshes the derived gauges. Nil-safe.
func (d *Diag) Snapshot() Snapshot {
	if d == nil {
		return Snapshot{TimeToEpsRounds: -1}
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	s := Snapshot{
		K:                d.info.K,
		Gamma:            d.info.Gamma,
		Beta:             d.info.Beta,
		BetaEff:          d.info.BetaEff,
		Epsilon:          d.cfg.Epsilon,
		Rounds:           d.rounds,
		ExplorerRounds:   d.explorerRounds,
		Swaps:            d.swaps,
		Resets:           d.resets,
		Improvements:     d.improvements,
		ProposalsStarved: d.starved,
		RaceErrors:       d.raceErrors,
		BestUtility:      d.bestUtil,
		HaveBest:         d.haveBest,
		Windows:          append([]Window(nil), d.windows...),
		History:          append([]ImprovePoint(nil), d.history...),
		Events:           append([]EventMark(nil), d.events...),
	}
	for _, e := range s.Events {
		if e.Kind == EventWarmStart {
			s.WarmStarts++
		}
	}
	if d.explorerRounds > 0 {
		s.SwapAcceptRate = float64(d.swaps) / float64(d.explorerRounds)
		s.ResetRate = float64(d.resets) / float64(d.explorerRounds)
	}
	s.TimeToEpsRounds = d.timeToEpsLocked()
	s.AutocorrLag1, s.IntegratedAutocorrTime, s.UtilitySamples = d.autocorrLocked()
	if d.target != nil {
		s.DTV = d.dtvLocked()
	}

	d.gTimeToEps.Set(float64(s.TimeToEpsRounds))
	d.gAC1.Set(s.AutocorrLag1)
	d.gTauInt.Set(s.IntegratedAutocorrTime)
	if s.DTV != nil {
		d.gDTV.Set(s.DTV.Estimate)
	}
	return s
}

// Digest is the scalar-only convergence summary a decision-journal
// entry embeds per epoch: everything an auditor needs to judge the
// solve's convergence without the windowed curves (which Snapshot
// still serves at /debug/convergence).
type Digest struct {
	Rounds          int64   `json:"rounds"`
	Improvements    int64   `json:"improvements"`
	TimeToEpsRounds int     `json:"time_to_eps_rounds"`
	BestUtility     float64 `json:"best_utility"`
	HaveBest        bool    `json:"have_best"`
	WarmStarts      int     `json:"warm_starts,omitempty"`
}

// Digest returns the scalar convergence summary of the current run.
// Unlike Snapshot it copies no windows, history, or events — a few
// scalar reads under the mutex — so the serving loop can journal it
// every epoch without allocating. BestUtility is 0 (with HaveBest
// false) before any feasible solution, keeping the digest
// JSON-marshalable (the internal sentinel is -Inf). Nil-safe.
func (d *Diag) Digest() Digest {
	if d == nil {
		return Digest{TimeToEpsRounds: -1}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	dg := Digest{
		Rounds:          d.rounds,
		Improvements:    d.improvements,
		TimeToEpsRounds: d.timeToEpsLocked(),
		HaveBest:        d.haveBest,
	}
	if d.haveBest {
		dg.BestUtility = d.bestUtil
	}
	for _, e := range d.events {
		if e.Kind == EventWarmStart {
			dg.WarmStarts++
		}
	}
	return dg
}

// timeToEpsLocked scans the improvement history backwards for the last
// excursion below the ε band around the final best; the next recorded
// level is when the run entered the band for good.
func (d *Diag) timeToEpsLocked() int {
	if !d.haveBest || len(d.history) == 0 {
		return -1
	}
	final := d.bestUtil
	band := d.cfg.Epsilon * math.Abs(final)
	thresh := final - band
	entered := d.history[0].Round
	for i := len(d.history) - 1; i >= 0; i-- {
		if d.history[i].Utility < thresh {
			if i+1 < len(d.history) {
				entered = d.history[i+1].Round
			} else {
				entered = d.history[i].Round
			}
			break
		}
		entered = d.history[i].Round
	}
	return entered
}

// autocorrLocked computes the lag-1 autocorrelation and the integrated
// autocorrelation time τ_int = 1 + 2·Σ ρ(l) of the winner-utility
// series, truncating the sum at the first non-positive ρ (Geyer's
// initial-positive rule, simplified) or MaxAutocorrLag.
func (d *Diag) autocorrLocked() (lag1, tauInt float64, n int) {
	n = d.utilLen
	if n < 8 {
		return 0, 0, n
	}
	// Reconstruct chronological order from the ring.
	xs := make([]float64, n)
	start := 0
	if n == len(d.utilRing) {
		start = d.utilNext
	}
	for i := 0; i < n; i++ {
		xs[i] = d.utilRing[(start+i)%len(d.utilRing)]
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	if v == 0 {
		return 0, 1, n
	}
	maxLag := d.cfg.MaxAutocorrLag
	if maxLag > n/4 {
		maxLag = n / 4
	}
	tauInt = 1
	for l := 1; l <= maxLag; l++ {
		var c float64
		for i := 0; i+l < n; i++ {
			c += (xs[i] - mean) * (xs[i+l] - mean)
		}
		rho := c / v
		if l == 1 {
			lag1 = rho
		}
		if rho <= 0 {
			break
		}
		tauInt += 2 * rho
	}
	return lag1, tauInt, n
}

// Probe is one explorer's private diagnostic buffer. During a segment it
// is owned by exactly one worker goroutine; the coordinator drains it at
// the merge (the stepSegment WaitGroup orders the accesses). All methods
// are nil-safe so the kernel can keep a nil probe on explorers that have
// nothing to record.
type Probe struct {
	d           *Diag
	trackVisits bool
	trackUtil   bool

	masks     []uint32
	active    []bool
	visitBuf  []uint32
	weightBuf []float64
	utilBuf   []float64
}

// NewProbe registers a probe for explorer id with the given thread
// count. Returns nil — no hot-path cost at all — when the explorer has
// nothing to record: visit tracking is off (instance too large) and the
// explorer is not the utility-series source (explorer 0). Nil-safe.
func (d *Diag) NewProbe(id, numThreads int) *Probe {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	trackVisits := d.target != nil
	trackUtil := id == 0
	if !trackVisits && !trackUtil {
		return nil
	}
	p := &Probe{d: d, trackVisits: trackVisits, trackUtil: trackUtil}
	if trackVisits {
		p.masks = make([]uint32, numThreads)
		p.active = make([]bool, numThreads)
	}
	d.probes = append(d.probes, p)
	return p
}

// TracksVisits reports whether RecordRound has work to do; the kernel
// uses it to pick the instrumented stepping loop. Nil-safe.
func (p *Probe) TracksVisits() bool { return p != nil && p.trackVisits }

// SetThread installs thread i's current selection mask and activity;
// called at probe construction, never during a segment. Nil-safe.
func (p *Probe) SetThread(i int, mask uint64, active bool) {
	if p == nil || !p.trackVisits || i >= len(p.masks) {
		return
	}
	p.masks[i] = uint32(mask)
	p.active[i] = active
}

// RecordSwap maintains thread's incremental mask across an executed
// swap and appends the winner's post-swap utility to the series buffer.
// Hot path: two slice ops at most. Nil-safe.
func (p *Probe) RecordSwap(thread, outPos, inPos int, util float64) {
	if p == nil {
		return
	}
	if p.trackVisits && thread < len(p.masks) {
		p.masks[thread] ^= 1<<uint(outPos) | 1<<uint(inPos)
	}
	if p.trackUtil {
		p.utilBuf = append(p.utilBuf, util)
	}
}

// RecordRound appends one dwell sample per active thread, each carrying
// the round's dwell weight. Counting rounds measures the embedded jump
// chain, whose occupancy is ∝ π(x)·Σrates(x) — the chain dwells at the
// mode (small total rate) while the jump chain executes one swap per
// round and bounces off, so raw counts diverge from Gibbs. The
// kernel passes weight = 1/Σw (the expected holding time before the next
// race fires); weighting each sample by it recovers the continuous-time
// occupancy, which is the stationary law the target enumerates. Rounds
// on the log-rate fallback path pass weight 1 (the absolute scale of a
// single round is irrelevant there and extreme-β instances never run the
// pinning). Only called when TracksVisits. Nil-safe.
func (p *Probe) RecordRound(weight float64) {
	if p == nil || !p.trackVisits {
		return
	}
	for i, m := range p.masks {
		if p.active[i] {
			p.visitBuf = append(p.visitBuf, m)
			p.weightBuf = append(p.weightBuf, weight)
		}
	}
}
