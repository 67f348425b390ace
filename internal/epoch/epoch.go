// Package epoch orchestrates the five stages of an Elastico-style epoch
// (Section I of the paper):
//
//  1. Committee formation — PoW election (package pow);
//  2. Overlay configuration — members discover each other (package overlay);
//  3. Intra-committee consensus — PBFT over the committee's shard
//     (package pbft);
//  4. Final consensus — the final committee permits a subset of the
//     submitted shards (the MVCom scheduling decision, package core) and
//     appends a final block to the root chain (package chain);
//  5. Epoch randomness refreshing — derived while appending the final
//     block.
//
// The pipeline produces exactly the two features the scheduler consumes —
// per-committee two-phase latency l_i and shard size s_i — plus the full
// accounting (deadline, throughput, cumulative age) behind Fig. 2 and the
// trace-driven experiments.
package epoch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
	"mvcom/internal/overlay"
	"mvcom/internal/pbft"
	"mvcom/internal/pow"
	"mvcom/internal/randx"
	"mvcom/internal/seobs"
	"mvcom/internal/sim"
	"mvcom/internal/txgen"
)

// Errors returned by the pipeline.
var (
	ErrBadConfig = errors.New("epoch: invalid configuration")
	ErrNoEpochs  = errors.New("epoch: epochs must be >= 1")
)

// FaultPointCommittee is the pipeline's fault point, evaluated once per
// member committee per epoch on Config.FaultInjector. Any firing marks
// that committee failed, exactly as a ping-confirmed mid-epoch death is
// (Section V), which is the Theorem 2 perturbation: the failed
// committee's shard leaves the scheduling instance for the epoch.
const FaultPointCommittee = "epoch.committee"

// Config parameterizes the pipeline.
type Config struct {
	// Committees is the number of member committees |I_j|. Required.
	Committees int
	// CommitteeSize is the number of replicas per committee. Default 16.
	CommitteeSize int
	// FaultyPerCommittee is the number of Byzantine replicas per
	// committee. Default 0; capped at (size-1)/3 by validation.
	FaultyPerCommittee int
	// PoW configures stage 1. Default: 600 s mean solve (paper setting).
	PoW pow.Election
	// Net configures the overlay model.
	Net overlay.Config
	// ConsensusTarget is the expected intra-committee consensus latency;
	// PBFT's per-step mean is calibrated to hit it. Default 54.5 s (paper
	// setting).
	ConsensusTarget time.Duration
	// PerIdentity is the per-node identity-establishment cost of stage 2:
	// after PoW, every participant's identity (PoW solution + key) is
	// exchanged and verified network-wide through the directory, so the
	// stage costs PerIdentity × total nodes. This is the term that makes
	// formation latency grow linearly with network size (Fig. 2a).
	// Default 500 ms.
	PerIdentity time.Duration
	// Trace configures the synthetic transaction dataset.
	Trace txgen.Config
	// NmaxFraction is the fraction of committees whose arrival closes the
	// admission window (the paper's Nmax, default 0.8): the deadline t_j
	// is the arrival time of the ⌈Nmax·|I|⌉-th committee.
	NmaxFraction float64
	// FailureRate is the per-epoch probability that a member committee
	// fails mid-epoch (e.g. a DoS attack). Failed committees are detected
	// by the final committee's ping probes (Section V) and excluded from
	// the scheduling instance; their shard is lost for the epoch.
	FailureRate float64
	// FaultInjector, when non-nil, evaluates FaultPointCommittee once per
	// member committee per epoch; firings fail targeted committees
	// deterministically (unlike the FailureRate coin) and do not consume
	// the pipeline's RNG stream, so a chaos run stays step-for-step
	// alignable with its fault-free twin. Nil is off.
	FaultInjector *faultinject.Injector
	// HashAssignment switches committee formation from solve-order
	// round-robin to Elastico's identity-bit assignment seeded by the
	// previous epoch's randomness (stage 5 feeding stage 1).
	HashAssignment bool
	// HashPowerDrift multiplies the network's aggregate hash power every
	// epoch (1.0 = stable; 1.1 = 10% faster miners per epoch). Nonzero
	// drift models the environment the difficulty retargeter corrects.
	HashPowerDrift float64
	// Retarget enables Bitcoin-style difficulty adjustment: after each
	// epoch the expected solve time is retargeted toward the configured
	// PoW mean using the observed solve times.
	Retarget bool
	// DetailedConsensus runs stage 3 as a message-level PBFT simulation
	// (real pre-prepare/prepare/commit events over an intra-committee
	// network calibrated to ConsensusTarget) instead of the analytic
	// order-statistics model.
	DetailedConsensus bool
	// MaxDeferrals, when positive, bounds how many consecutive epochs a
	// refused committee may re-submit before its shard expires and is
	// dropped. 0 (the default) keeps the paper's unbounded deferral
	// (Fig. 3). Long-lived serving loops under sustained capacity
	// pressure need a bound: without one the deferral backlog — refused
	// shards re-queueing while fresh shards keep arriving — grows with
	// epoch count, and so do the live set and the heap.
	MaxDeferrals int
	// PoolDriven feeds epochs from the trace's arrival process: instead
	// of re-sharding the entire trace every epoch, committees package
	// only the blocks whose btime falls inside the epoch's wall-clock
	// window, so shard sizes follow real demand and quiet epochs produce
	// small (or empty) shards. Committees with no transactions sit the
	// epoch out.
	PoolDriven bool
	// Supply, when non-nil, feeds each epoch's fresh shard contents from
	// an external source instead of the synthetic trace: after stages 1–3
	// the fresh reports' TxCounts are zeroed and Supply.Fill distributes
	// real ingested demand over them (deferred committees keep the shard
	// they already packaged, as in PoolDriven mode). Epochs where Fill
	// leaves every shard empty commit an empty block like a PoolDriven
	// quiet window. Mutually exclusive with PoolDriven. Nil is off.
	Supply ShardSupply
	// EpochBudget, when positive, is the wall-clock SLO target for one
	// epoch run: every phase gauge then also exports its share of the
	// budget (mvcom_epoch_phase_budget_ratio{phase=...}), the surface a
	// serving loop alerts on. Zero disables the ratio gauges.
	EpochBudget time.Duration
	// Seed drives every stochastic component.
	Seed int64
	// Obs, when non-nil, receives pipeline telemetry: per-committee
	// stage-latency histograms, the cumulative-age gauge (the Π_i
	// accounting term), permitted/deferred/failed counters, and
	// phase-transition trace events. Nil disables every hook.
	Obs *obs.EpochObserver
	// DecisionLog, when non-nil, journals every committed epoch's full
	// decision record (scheduling inputs, solver fingerprint, selection
	// with per-committee marginals, rejected counterfactuals, deferral
	// and expiry events) for offline audit and deterministic replay
	// verification (internal/decisionlog). Nil is off.
	DecisionLog *decisionlog.Journal
}

func (c Config) withDefaults() (Config, error) {
	if c.Committees < 1 {
		return c, fmt.Errorf("%w: committees = %d", ErrBadConfig, c.Committees)
	}
	if c.CommitteeSize <= 0 {
		c.CommitteeSize = 16
	}
	if c.CommitteeSize < 4 {
		return c, fmt.Errorf("%w: committee size %d below PBFT minimum 4", ErrBadConfig, c.CommitteeSize)
	}
	if maxF := pbft.MaxFaulty(c.CommitteeSize); c.FaultyPerCommittee > maxF {
		return c, fmt.Errorf("%w: %d faulty replicas exceeds (n-1)/3 = %d",
			ErrBadConfig, c.FaultyPerCommittee, maxF)
	}
	if c.FaultyPerCommittee < 0 {
		c.FaultyPerCommittee = 0
	}
	if c.ConsensusTarget <= 0 {
		c.ConsensusTarget = pbft.DefaultMeanTotal
	}
	if c.PerIdentity <= 0 {
		c.PerIdentity = 500 * time.Millisecond
	}
	if c.NmaxFraction <= 0 || c.NmaxFraction > 1 {
		c.NmaxFraction = 0.8
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return c, fmt.Errorf("%w: failure rate %v out of [0,1)", ErrBadConfig, c.FailureRate)
	}
	if c.HashPowerDrift == 0 {
		c.HashPowerDrift = 1
	}
	if c.HashPowerDrift <= 0 {
		return c, fmt.Errorf("%w: hash power drift %v must be positive", ErrBadConfig, c.HashPowerDrift)
	}
	if c.Supply != nil && c.PoolDriven {
		return c, fmt.Errorf("%w: Supply and PoolDriven are mutually exclusive", ErrBadConfig)
	}
	return c, nil
}

// ShardSupply feeds epochs from an external transaction source (the
// networked serving plane): Fill receives the epoch's fresh committee
// reports with TxCount zeroed and distributes the ingested demand over
// them — setting TxCount, and optionally overriding the two-phase
// latency of committees whose reports arrived over the wire. Fill runs
// on the epoch goroutine; implementations synchronize internally.
type ShardSupply interface {
	Fill(epoch int, reports []CommitteeReport)
}

// CommitteeReport is one member committee's epoch outcome: the two features
// the final committee waits for (two-phase latency and shard size) plus
// the latency breakdown.
type CommitteeReport struct {
	Committee int
	// Formation is the stage-1+2 latency: PoW seat filling plus overlay
	// configuration.
	Formation time.Duration
	// Consensus is the stage-3 PBFT latency.
	Consensus time.Duration
	// TwoPhase = Formation + Consensus (l_i).
	TwoPhase time.Duration
	// TxCount is the shard size s_i.
	TxCount int
	// Arrived reports whether the committee submitted before the
	// admission window closed (l_i ≤ t_j).
	Arrived bool
	// Failed marks a committee that failed mid-epoch (injected).
	Failed bool
	// Deferrals counts how many epochs this shard has been carried over
	// after a refusal (0 for a fresh submission).
	Deferrals int
}

// Result is one epoch's full outcome. Serve hands out pipeline-owned
// scratch (see EpochStream); RunEpoch and RunEpochs return clones the
// caller owns.
type Result struct {
	Epoch   int
	Reports []CommitteeReport
	// Live maps the scheduling instance's shard indices back to Reports
	// indices (failed committees are excluded from the instance).
	Live []int
	// DDL is the deadline t_j (seconds since epoch start).
	DDL float64
	// Instance is the scheduling input handed to the solver.
	Instance core.Instance
	// Solution is the final committee's decision.
	Solution core.Solution
	// FinalBlock is the block appended to the root chain.
	FinalBlock *chain.FinalBlock
	// Deferred lists committees refused this epoch (stragglers or not
	// permitted); they re-submit next epoch with reduced latency
	// (Fig. 3).
	Deferred []CommitteeReport
}

// Clone returns a deep copy of r that stays valid after later epochs
// run: Reports, Live, Deferred, the Instance's slices and the selection
// are copied. FinalBlock belongs to the chain and is shared.
func (r *Result) Clone() *Result {
	c := *r
	c.Reports = append([]CommitteeReport(nil), r.Reports...)
	c.Live = append([]int(nil), r.Live...)
	c.Deferred = append([]CommitteeReport(nil), r.Deferred...)
	c.Instance = r.Instance.Clone()
	c.Solution.Selected = append([]bool(nil), r.Solution.Selected...)
	return &c
}

// Scheduler decides which submitted shards the final committee permits.
// core.Solver implementations adapt directly via SolverScheduler.
type Scheduler interface {
	Schedule(in core.Instance) (core.Solution, error)
}

// SolverScheduler adapts any core.Solver into a Scheduler.
type SolverScheduler struct {
	Solver core.Solver
}

// Schedule implements Scheduler.
func (s SolverScheduler) Schedule(in core.Instance) (core.Solution, error) {
	sol, _, err := s.Solver.Solve(in)
	return sol, err
}

// AcceptAll is the no-scheduling baseline: the final committee waits for
// every arrived shard and permits as many as fit, largest value first.
type AcceptAll struct{}

// Schedule implements Scheduler.
func (AcceptAll) Schedule(in core.Instance) (core.Solution, error) {
	if err := in.Validate(); err != nil {
		return core.Solution{}, err
	}
	sel := make([]bool, in.NumShards())
	load := 0
	for _, i := range in.Arrived() {
		if load+in.Sizes[i] > in.Capacity {
			continue
		}
		sel[i] = true
		load += in.Sizes[i]
	}
	return core.NewSolution(&in, sel), nil
}

// Pipeline runs epochs over a shared root chain.
type Pipeline struct {
	cfg   Config
	rng   *randx.RNG
	chain *chain.RootChain
	trace *txgen.Trace
	// pbftStep is the calibrated per-step mean.
	pbftStep time.Duration
	// meanSolve is the current difficulty (expected per-node solve time
	// at nominal hash power); retargeting adjusts it across epochs.
	meanSolve time.Duration
	// hashPower is the aggregate mining speed multiplier, drifting by
	// HashPowerDrift per epoch.
	hashPower float64
	// detailedLink is the calibrated intra-committee link latency for the
	// message-level consensus mode.
	detailedLink time.Duration
	// wallClock accumulates epoch deadlines; PoolDriven uses it to drain
	// the trace's arrival process.
	wallClock time.Duration
	// blockCursor indexes the first trace block not yet consumed
	// (PoolDriven mode).
	blockCursor int
	// deferred carries refused committees into the next epoch with
	// reduced two-phase latency.
	deferred []CommitteeReport
	epoch    int

	// The session below carries from epoch to epoch: scratch buffers the
	// epoch body reuses, and the warm-start threading between decisions.

	// reports backs memberStages' per-epoch slice (including the
	// deferred entries appended after it).
	reports []CommitteeReport
	// sizes and lats back the scheduling instance's slices.
	sizes []int
	lats  []float64
	// sel backs the warm-start selection projected over Live indices.
	sel []bool
	// shards backs the final-block assembly slice (the ShardBlocks
	// themselves are retained by the caller-visible FinalBlock path, the
	// slice header is not).
	shards []*chain.ShardBlock
	// result is the reused per-epoch Result.
	result Result
	// permitted holds the committee IDs the previous epoch's decision
	// selected; havePrev is false until a first decision exists.
	permitted map[int]bool
	havePrev  bool
	// warmUsed marks whether this epoch's schedule went through the
	// warm-start path (and sel therefore holds the seed selection) — the
	// decision journal records it so replay can reproduce the exact
	// SolveFrom call.
	warmUsed bool
	// serving is set while Serve runs; it refuses re-entrant calls.
	serving bool
}

// NewPipeline validates the configuration, generates the transaction
// trace, and calibrates the PBFT step time to the consensus target.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	step, err := pbft.CalibrateMeanStep(rng.Split(), pbft.Config{
		Replicas: cfg.CommitteeSize,
		Faulty:   cfg.FaultyPerCommittee,
	}, cfg.ConsensusTarget, 400)
	if err != nil {
		return nil, fmt.Errorf("calibrate pbft: %w", err)
	}
	var detailedLink time.Duration
	if cfg.DetailedConsensus {
		detailedLink, err = pbft.CalibrateDetailedLatency(cfg.Seed+1, cfg.CommitteeSize,
			cfg.FaultyPerCommittee, cfg.ConsensusTarget, 60)
		if err != nil {
			return nil, fmt.Errorf("calibrate detailed pbft: %w", err)
		}
	}
	meanSolve := cfg.PoW.MeanSolve
	if meanSolve <= 0 {
		meanSolve = 600 * time.Second
	}
	return &Pipeline{
		cfg:          cfg,
		rng:          rng,
		chain:        chain.NewRootChain(),
		trace:        txgen.Generate(rng.Split(), cfg.Trace),
		pbftStep:     step,
		meanSolve:    meanSolve,
		hashPower:    1,
		detailedLink: detailedLink,
		permitted:    make(map[int]bool),
	}, nil
}

// Chain exposes the root chain for inspection.
func (p *Pipeline) Chain() *chain.RootChain { return p.chain }

// Trace exposes the generated transaction trace.
func (p *Pipeline) Trace() *txgen.Trace { return p.trace }

// startPhase opens one wall-clock phase of an epoch run: a child span
// under the epoch root plus the per-phase SLO gauges on finish. The
// returned func ends the phase with an outcome ("" = ok). Everything
// no-ops when Obs is nil.
func (p *Pipeline) startPhase(root *obs.Span, name string) func(outcome string) {
	sp := p.cfg.Obs.TraceCtx().StartSpan(name, "pipeline", root.Context())
	start := time.Now()
	return func(outcome string) {
		sp.FinishOutcome(outcome)
		p.cfg.Obs.PhaseWall(name, time.Since(start).Seconds(), p.cfg.EpochBudget.Seconds())
	}
}

// RunEpoch executes the five stages once, using sched for the stage-4
// decision. alpha, capacity, and nmin parameterize the MVCom instance.
// It is RunEpochs(1, ...).
func (p *Pipeline) RunEpoch(sched Scheduler, alpha float64, capacity, nmin int) (*Result, error) {
	out, err := p.RunEpochs(1, sched, alpha, capacity, nmin)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// runEpoch is the epoch body Serve runs: the five stages once, using
// sched for the stage-4 decision. alpha, capacity, and nmin
// parameterize the MVCom instance.
func (p *Pipeline) runEpoch(sched Scheduler, alpha float64, capacity, nmin int) (*Result, error) {
	p.epoch++
	res := p.newResult()
	engine := sim.NewEngine()

	// The epoch root span parents every phase (and, through the solve
	// phase, any spans the scheduler's own observer emits); the committed
	// flag routes the end event's outcome and gates the E2E histogram so
	// it only measures epochs that actually committed a block.
	epochStart := time.Now()
	root := p.cfg.Obs.TraceCtx().StartRoot("epoch", "pipeline")
	committed := false
	defer func() {
		if committed {
			root.Finish()
			p.cfg.Obs.ObserveE2E(time.Since(epochStart).Seconds())
		} else {
			root.FinishOutcome("error")
		}
	}()

	endConsensus := p.startPhase(root, "consensus")
	reports, err := p.memberStages(engine)
	if err != nil {
		endConsensus("error")
		return nil, err
	}
	endConsensus("")
	endCollect := p.startPhase(root, "collect")
	if p.cfg.Supply != nil {
		// External supply replaces the trace-derived shard sizes on the
		// fresh reports; deferred entries (appended below) keep theirs.
		for i := range reports {
			reports[i].TxCount = 0
		}
		p.cfg.Supply.Fill(p.epoch, reports)
	}
	// Carried-over committees re-submit with their residual latency.
	reports = append(reports, p.deferred...)
	// Keep the (possibly grown) backing array for the next epoch.
	p.reports = reports
	p.deferred = p.deferred[:0]

	// The admission window closes when ⌈Nmax·count⌉ committees have
	// submitted; that arrival instant is the deadline t_j.
	ddl := admissionDeadline(reports, p.cfg.NmaxFraction)
	res.DDL = ddl.Seconds()
	for i := range reports {
		reports[i].Arrived = reports[i].TwoPhase <= ddl
	}
	res.Reports = reports

	if p.cfg.PoolDriven {
		p.assignArrivedBlocks(reports, ddl)
	}

	// Failed committees (detected via ping, Section V) never make it into
	// the scheduling instance, and neither do committees whose shard is
	// empty this epoch; Live maps instance indices to reports.
	for i, rep := range reports {
		if !rep.Failed && reports[i].TxCount > 0 {
			res.Live = append(res.Live, i)
		}
	}
	if len(res.Live) == 0 {
		if p.cfg.PoolDriven || p.cfg.Supply != nil {
			// A quiet window: no transactions arrived, so the final
			// committee appends an empty block and the epoch ends.
			endCollect("quiet-window")
			endCommit := p.startPhase(root, "commit")
			fb, aErr := p.chain.Append(p.epoch, engine.Now()+ddl, nil)
			if aErr != nil {
				endCommit("error")
				return nil, fmt.Errorf("epoch %d empty block: %w", p.epoch, aErr)
			}
			endCommit("empty-block")
			res.FinalBlock = fb
			committed = true
			return res, nil
		}
		endCollect("all-failed")
		return nil, fmt.Errorf("epoch %d: every committee failed", p.epoch)
	}
	sizes, lats := p.scratchInstance(len(res.Live))
	in := core.Instance{
		Sizes:     sizes,
		Latencies: lats,
		DDL:       res.DDL,
		Alpha:     alpha,
		Capacity:  capacity,
		Nmin:      nmin,
	}
	for li, ri := range res.Live {
		in.Sizes[li] = reports[ri].TxCount
		in.Latencies[li] = reports[ri].TwoPhase.Seconds()
	}
	if err := in.Validate(); err != nil {
		endCollect("invalid-instance")
		return nil, fmt.Errorf("epoch %d instance: %w", p.epoch, err)
	}
	res.Instance = in
	endCollect("")

	endSolve := p.startPhase(root, "solve")
	sol, err := p.schedule(sched, in, res)
	if err != nil {
		endSolve("error")
		return nil, fmt.Errorf("epoch %d schedule: %w", p.epoch, err)
	}
	endSolve("")
	res.Solution = sol
	// Journal the decision before recordPermitted rewrites the warm-start
	// state; deferral events are filled in by the commit loop below and
	// the entry is appended only once the final block is on the chain.
	dle := p.cfg.DecisionLog.Acquire()
	if dle != nil {
		p.fillDecision(dle, sched, in, sol, res)
	}
	p.recordPermitted(res)
	if o := p.cfg.Obs; o != nil {
		o.Trace.Emit(obs.EvEpochPhase, "epoch", float64(p.epoch), "schedule")
		o.PermittedTxs.Add(int64(sol.Load))
		o.PermittedCommittees.Add(int64(sol.Count))
	}

	// Stage 4+5: assemble the final block from permitted shards and
	// append it (randomness refresh happens inside Append). Refused
	// committees defer to the next epoch with reduced latency (Fig. 3):
	// l' = max(l − t_j, 0) plus a fresh consensus round.
	endCommit := p.startPhase(root, "commit")
	shards := p.shards[:0]
	cumAge := 0.0
	for li, ri := range res.Live {
		rep := reports[ri]
		if li < len(sol.Selected) && sol.Selected[li] {
			sb, sbErr := chain.NewShardHeader(rep.Committee, p.epoch, rep.TwoPhase, p.shardRoot(rep), rep.TxCount)
			if sbErr != nil {
				endCommit("error")
				return nil, fmt.Errorf("epoch %d shard header: %w", p.epoch, sbErr)
			}
			shards = append(shards, sb)
			if o := p.cfg.Obs; o != nil {
				age := in.Age(li)
				cumAge += age
				o.ShardAge.Observe(age)
				o.Trace.Emit(obs.EvShardAge, fmt.Sprintf("committee-%d", rep.Committee), age, "")
			}
			continue
		}
		carried := rep
		carried.Deferrals++
		if p.cfg.MaxDeferrals > 0 && carried.Deferrals > p.cfg.MaxDeferrals {
			// The shard expires instead of re-queueing forever; under
			// sustained capacity pressure this is what keeps the deferral
			// backlog — and the live set — bounded.
			if dle != nil {
				dle.Deferrals = append(dle.Deferrals, decisionlog.DeferralEvent{
					Committee: rep.Committee, Kind: decisionlog.Expired,
					Deferrals: carried.Deferrals, MaxDeferrals: p.cfg.MaxDeferrals,
				})
			}
			continue
		}
		if dle != nil {
			dle.Deferrals = append(dle.Deferrals, decisionlog.DeferralEvent{
				Committee: rep.Committee, Kind: decisionlog.Deferred,
				Deferrals: carried.Deferrals,
			})
		}
		residual := rep.TwoPhase - ddl
		if residual < 0 {
			residual = 0
		}
		carried.TwoPhase = residual
		carried.Formation = residual
		carried.Consensus = 0
		res.Deferred = append(res.Deferred, carried)
	}
	p.deferred = append(p.deferred, res.Deferred...)
	p.shards = shards

	fb, err := p.chain.Append(p.epoch, engine.Now()+ddl, shards)
	if err != nil {
		endCommit("error")
		return nil, fmt.Errorf("epoch %d final block: %w", p.epoch, err)
	}
	endCommit("")
	res.FinalBlock = fb
	if o := p.cfg.Obs; o != nil {
		o.Trace.Emit(obs.EvEpochPhase, "epoch", float64(p.epoch), "final-block-assembly")
		o.CumulativeAge.Set(cumAge)
		o.DeferredCommittees.Add(int64(len(res.Deferred)))
		o.Epochs.Inc()
	}
	if dle != nil {
		dle.TraceID = root.Context().TraceID
		if err := p.cfg.DecisionLog.Append(dle); err != nil {
			// The block is committed but its provenance is not: an audit
			// journal that silently loses entries is worse than none, so
			// the epoch fails loudly.
			return nil, fmt.Errorf("epoch %d decision journal: %w", p.epoch, err)
		}
	}
	committed = true
	return res, nil
}

// topRejected is how many rejected-candidate counterfactuals each journal
// entry carries.
const topRejected = 8

// fillDecision populates a journal entry from the epoch's inputs and
// decision. The deferral events are appended later by the commit loop.
func (p *Pipeline) fillDecision(e *decisionlog.Entry, sched Scheduler, in core.Instance, sol core.Solution, res *Result) {
	e.Epoch = p.epoch
	e.DDL = in.DDL
	e.Alpha = in.Alpha
	e.Capacity = in.Capacity
	e.Nmin = in.Nmin
	for li, ri := range res.Live {
		rep := res.Reports[ri]
		e.Shards = append(e.Shards, decisionlog.ShardRecord{
			Committee: rep.Committee,
			Size:      in.Sizes[li],
			Latency:   in.Latencies[li],
			Age:       in.Age(li),
			Deferrals: rep.Deferrals,
		})
	}
	var diag *seobs.Diag
	e.Solver, diag = fingerprintScheduler(sched)
	if diag != nil {
		d := diag.Digest()
		e.Diag = &d
	}
	// A warm-capable scheduler whose solver has warm starts off solves
	// cold (SolveFrom is Solve), so only a seed the solver used is
	// journaled.
	if p.warmUsed && e.Solver.WarmStart {
		e.Warm = true
		for li, s := range p.sel {
			if s {
				e.WarmPrev = append(e.WarmPrev, li)
			}
		}
	}
	for li, s := range sol.Selected {
		if s {
			e.Selected = append(e.Selected, li)
		}
	}
	e.Utility = sol.Utility
	e.Load = sol.Load
	e.Count = sol.Count
	e.Marginals = core.MarginalsInto(e.Marginals, &in, sol)
	e.Rejected = core.RejectedCounterfactualsInto(e.Rejected, &in, sol, topRejected)
}

// fingerprintScheduler maps a Scheduler to its journal fingerprint. An
// SE-backed SolverScheduler is fully fingerprinted (and replayable);
// AcceptAll is recorded by kind; anything else is opaque.
func fingerprintScheduler(sched Scheduler) (decisionlog.SolverFingerprint, *seobs.Diag) {
	switch s := sched.(type) {
	case SolverScheduler:
		if se, ok := s.Solver.(*core.SE); ok {
			cfg := se.Config()
			return decisionlog.FingerprintSE(cfg), cfg.Diag
		}
	case *SolverScheduler:
		if se, ok := s.Solver.(*core.SE); ok {
			cfg := se.Config()
			return decisionlog.FingerprintSE(cfg), cfg.Diag
		}
	case AcceptAll, *AcceptAll:
		return decisionlog.SolverFingerprint{Kind: decisionlog.KindAcceptAll}, nil
	}
	return decisionlog.SolverFingerprint{Kind: decisionlog.KindOpaque}, nil
}

// Measure runs stages 1–3 only and returns the per-committee reports with
// the would-be deadline — the measurement behind Fig. 2 (two-phase latency
// versus network size, and the latency CDFs).
func (p *Pipeline) Measure() ([]CommitteeReport, float64, error) {
	engine := sim.NewEngine()
	reports, err := p.memberStages(engine)
	if err != nil {
		return nil, 0, err
	}
	// memberStages fills pipeline scratch; the caller gets its own copy.
	reports = append([]CommitteeReport(nil), reports...)
	ddl := admissionDeadline(reports, p.cfg.NmaxFraction)
	for i := range reports {
		reports[i].Arrived = reports[i].TwoPhase <= ddl
	}
	return reports, ddl.Seconds(), nil
}

// memberStages simulates stages 1–3 for every member committee on the
// discrete-event engine and returns their reports.
func (p *Pipeline) memberStages(engine *sim.Engine) ([]CommitteeReport, error) {
	cfg := p.cfg
	nodes := cfg.Committees * cfg.CommitteeSize
	// Miners drift in speed epoch over epoch; the effective solve time is
	// the current difficulty divided by the aggregate hash power.
	p.hashPower *= cfg.HashPowerDrift
	election := cfg.PoW
	election.MeanSolve = time.Duration(float64(p.meanSolve) / p.hashPower)
	if election.MeanSolve <= 0 {
		election.MeanSolve = time.Nanosecond
	}
	solvers, err := election.Run(p.rng.Split(), nodes)
	if err != nil {
		return nil, fmt.Errorf("pow election: %w", err)
	}
	if cfg.Retarget {
		target := cfg.PoW.MeanSolve
		if target <= 0 {
			target = 600 * time.Second
		}
		rt := pow.Retargeter{Target: target}
		if next, rErr := rt.AdjustFromSolvers(p.meanSolve, solvers); rErr == nil {
			p.meanSolve = next
		}
	}
	var committees []pow.Committee
	if cfg.HashAssignment {
		// Stage 5 feeds stage 1: the previous epoch's randomness seeds
		// the identity-bit committee assignment.
		committees, err = pow.AssignByHash(p.chain.TipHash(), solvers, cfg.Committees, cfg.CommitteeSize)
	} else {
		committees, err = pow.FormCommittees(solvers, cfg.Committees, cfg.CommitteeSize)
	}
	if err != nil {
		return nil, fmt.Errorf("form committees: %w", err)
	}
	net, err := overlay.NewNetwork(p.rng.Split(), nodes, cfg.Net)
	if err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}
	shards, err := p.trace.IntoShards(p.rng.Split(), cfg.Committees)
	if err != nil {
		return nil, fmt.Errorf("shard trace: %w", err)
	}

	reports := p.scratchReports(cfg.Committees)
	pbftRNG := p.rng.Split()
	// Stage 2's network-wide identity establishment: every node's PoW
	// solution and key are verified through the directory, costing
	// PerIdentity per participant regardless of committee.
	identityLatency := time.Duration(nodes) * cfg.PerIdentity
	done := 0
	for ci := range committees {
		ci := ci
		com := committees[ci]
		// Stage 1 finishes when the committee's last seat fills; stages 2
		// and 3 are scheduled as events on the virtual clock.
		if _, err := engine.ScheduleAt(com.FormedAt, func(now time.Duration) {
			cfgLatency, cErr := net.ConfigureOverlay(com.Members, 0)
			if cErr != nil {
				cfgLatency = 0
			}
			cfgLatency += identityLatency
			total, consErr := p.consensusLatency(pbftRNG)
			rep := CommitteeReport{
				Committee: com.ID,
				Formation: now + cfgLatency,
				Consensus: total,
				TwoPhase:  now + cfgLatency + total,
				TxCount:   shards[ci].TxTotal,
			}
			if consErr != nil {
				markConsensusFailed(&rep)
			}
			reports[ci] = rep
			done++
		}); err != nil {
			return nil, err
		}
	}
	engine.Run(0)
	if done != cfg.Committees {
		return nil, fmt.Errorf("epoch: only %d of %d committees completed", done, cfg.Committees)
	}
	if fi := cfg.FaultInjector; fi != nil {
		anyLive := false
		for ci := range reports {
			if fi.Eval(FaultPointCommittee).Action != faultinject.ActNone {
				reports[ci].Failed = true
				if o := cfg.Obs; o != nil {
					o.Trace.Emit(obs.EvDistFault, FaultPointCommittee,
						float64(p.epoch), fmt.Sprintf("committee-%d", reports[ci].Committee))
				}
			} else if !reports[ci].Failed {
				anyLive = true
			}
		}
		if !anyLive && len(reports) > 0 {
			// Keep at least one committee alive so the epoch can proceed —
			// one that reached consensus, if any did (reviving a
			// consensus-failed committee would leave the epoch with only a
			// sentinel-latency straggler).
			for ci := range reports {
				if reports[ci].Consensus != consensusFailedLatency {
					reports[ci].Failed = false
					break
				}
			}
		}
	}
	if cfg.FailureRate > 0 {
		p.injectFailures(net, committees, reports)
	}
	if o := cfg.Obs; o != nil {
		epochN := float64(p.epoch)
		o.Trace.Emit(obs.EvEpochPhase, "epoch", epochN, "formation")
		o.Trace.Emit(obs.EvEpochPhase, "epoch", epochN, "intra-consensus")
		failed := int64(0)
		for _, rep := range reports {
			o.Formation.Observe(rep.Formation.Seconds())
			o.Consensus.Observe(rep.Consensus.Seconds())
			o.TwoPhase.Observe(rep.TwoPhase.Seconds())
			if rep.Failed {
				failed++
			}
		}
		o.FailedCommittees.Add(failed)
	}
	return reports, nil
}

// assignArrivedBlocks implements the PoolDriven sizing: the epoch's
// wall-clock window [wallClock, wallClock+ddl) drains the trace blocks
// that arrived in it, round-robin across this epoch's new committees
// (deferred committees keep the shard they already packaged). Committees
// left without blocks report an empty shard.
func (p *Pipeline) assignArrivedBlocks(reports []CommitteeReport, ddl time.Duration) {
	end := p.wallClock + ddl
	p.wallClock = end
	// Deferred entries follow the new ones; clamp in case fewer reports
	// exist than configured committees (a truncated slice from a caller
	// must not panic the window accounting).
	fresh := reports
	if len(fresh) > p.cfg.Committees {
		fresh = fresh[:p.cfg.Committees]
	}
	for i := range fresh {
		fresh[i].TxCount = 0
	}
	if len(fresh) == 0 {
		// No committee to package the window's blocks: leave the cursor
		// where it is so the transactions are drained next epoch instead
		// of being silently dropped (and avoid the mod-zero round-robin).
		return
	}
	i := 0
	for p.blockCursor < len(p.trace.Blocks) && p.trace.Blocks[p.blockCursor].BTime <= end {
		fresh[i%len(fresh)].TxCount += p.trace.Blocks[p.blockCursor].Txs
		i++
		p.blockCursor++
	}
}

// consensusFailedLatency is the sentinel two-phase contribution of a
// committee whose consensus stage failed: far beyond any admission
// deadline, yet small enough that Formation + sentinel stays inside
// time.Duration's ~292-year range. The committee "submits very late or
// not at all" — the previous code returned a zero latency here, which
// made a crashed committee the *fastest* submitter and let it define
// the admission deadline.
const consensusFailedLatency = 100 * 365 * 24 * time.Hour

// markConsensusFailed rewrites a report whose consensus stage errored:
// the committee is failed (the final committee's pings find no live
// quorum, Section V) and its two-phase latency becomes the sentinel, so
// it can neither arrive nor close the admission window.
func markConsensusFailed(rep *CommitteeReport) {
	rep.Failed = true
	rep.Consensus = consensusFailedLatency
	rep.TwoPhase = rep.Formation + consensusFailedLatency
}

// consensusLatency runs stage 3 for one committee: the analytic
// order-statistics model by default, or a message-level PBFT instance on
// a fresh intra-committee network when DetailedConsensus is set. A
// non-nil error means the committee reached no consensus this epoch; the
// caller marks the report failed with a sentinel late latency rather
// than aborting the epoch.
func (p *Pipeline) consensusLatency(rng *randx.RNG) (time.Duration, error) {
	cfg := p.cfg
	if cfg.DetailedConsensus {
		members := make([]int, cfg.CommitteeSize)
		for i := range members {
			members[i] = i
		}
		bad := make(map[int]bool, cfg.FaultyPerCommittee)
		for i := 1; i <= cfg.FaultyPerCommittee && i < cfg.CommitteeSize; i++ {
			bad[i] = true
		}
		net, err := overlay.NewNetwork(rng.Split(), cfg.CommitteeSize, overlay.Config{
			MeanLatency: p.detailedLink,
		})
		if err != nil {
			return 0, err
		}
		res, err := pbft.RunDetailed(sim.NewEngine(), net, pbft.DetailedConfig{
			Replicas:        members,
			Faulty:          bad,
			ProcessingDelay: time.Microsecond,
		})
		if err != nil {
			return 0, err
		}
		return res.ConsensusAt, nil
	}
	consensus, err := pbft.Run(rng, pbft.Config{
		Replicas: cfg.CommitteeSize,
		Faulty:   cfg.FaultyPerCommittee,
		MeanStep: p.pbftStep,
	})
	if err != nil {
		return 0, err
	}
	return consensus.Total, nil
}

// injectFailures fails committees with the configured probability and has
// the final committee confirm each failure through ping probes (the
// Section V detection path: "the final committee can perceive a failed
// member committee by using the ping network protocol").
func (p *Pipeline) injectFailures(net *overlay.Network, committees []pow.Committee, reports []CommitteeReport) {
	failing := make([]bool, len(committees))
	anyLive := false
	for ci := range committees {
		failing[ci] = p.rng.Bool(p.cfg.FailureRate)
		if !failing[ci] {
			anyLive = true
		}
	}
	if !anyLive {
		// Keep at least one committee alive so the epoch can proceed.
		failing[0] = false
	}
	// The final committee's observer node sits in a live committee.
	observer := -1
	for ci := range committees {
		if !failing[ci] && len(committees[ci].Members) > 0 {
			observer = committees[ci].Members[0]
			break
		}
	}
	for ci := range committees {
		if !failing[ci] || len(committees[ci].Members) == 0 {
			continue
		}
		leader := committees[ci].Members[0]
		if err := net.Fail(leader); err != nil {
			continue
		}
		confirmed := true
		if observer >= 0 {
			det, err := overlay.NewDetector(net, observer, 0, 3)
			if err == nil {
				confirmed = false
				for probe := 0; probe < 3; probe++ {
					if det.Probe(leader) {
						confirmed = true
					}
				}
			}
		}
		reports[ci].Failed = confirmed
	}
}

// RunEpochs runs n consecutive epochs with the same scheduler and instance
// parameters — Serve over a FixedStream — returning a copy of every
// epoch's result (the results of the epochs before a failure, with the
// error).
func (p *Pipeline) RunEpochs(n int, sched Scheduler, alpha float64, capacity, nmin int) ([]*Result, error) {
	if n < 1 {
		return nil, ErrNoEpochs
	}
	out := make([]*Result, 0, n)
	err := p.Serve(context.Background(), sched, &FixedStream{
		N:      n,
		Params: EpochParams{Alpha: alpha, Capacity: capacity, Nmin: nmin},
		OnResult: func(res *Result) error {
			out = append(out, res.Clone())
			return nil
		},
	})
	return out, err
}

// shardRoot derives a header-only Merkle commitment for a shard from the
// committee identity and epoch (full transaction materialization is
// reserved for the examples; see chain.ShardBlock header-only semantics).
func (p *Pipeline) shardRoot(rep CommitteeReport) chain.Hash {
	tx := chain.Transaction{
		ID:     uint64(rep.Committee)<<32 | uint64(p.epoch),
		Amount: uint64(rep.TxCount),
	}
	return tx.Hash()
}

// admissionDeadline returns the arrival time of the ⌈fraction·n⌉-th
// committee (ascending two-phase latency) among the committees that can
// still submit: failed committees never arrive (the final committee's
// pings have confirmed their death, Section V), so they cannot close
// the admission window.
func admissionDeadline(reports []CommitteeReport, fraction float64) time.Duration {
	lat := make([]time.Duration, 0, len(reports))
	for _, r := range reports {
		if !r.Failed {
			lat = append(lat, r.TwoPhase)
		}
	}
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	// The ⌈fraction·n⌉-th order statistic. The 1e-9 slack keeps exact
	// products that land just above an integer in floating point
	// (0.8·35 = 28.000000000000004) from rounding up one extra rank;
	// fraction ≤ 0 clamps to the first arrival, fraction = 1 to the last.
	idx := int(math.Ceil(fraction*float64(len(lat))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}
