// Package epoch orchestrates the five stages of an Elastico-style epoch
// (Section I of the paper):
//
//  1. Committee formation — PoW election;
//  2. Overlay configuration — members discover each other;
//  3. Intra-committee consensus — PBFT over the committee's shard;
//  4. Final consensus — the final committee permits a subset of the
//     submitted shards (the MVCom scheduling decision, package core) and
//     appends a final block to the root chain (package chain);
//  5. Epoch randomness refreshing — derived while appending the final
//     block.
//
// Stages 1–3 are the stage models of stages.go. The pipeline produces
// exactly the two features the scheduler consumes — per-committee
// two-phase latency l_i and shard size s_i — plus the full accounting
// (deadline, throughput, cumulative age) behind Fig. 2 and the
// trace-driven experiments.
package epoch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/faultinject"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/seobs"
	"mvcom/internal/txgen"
)

// Errors returned by the pipeline.
var (
	ErrBadConfig = errors.New("epoch: invalid configuration")
	ErrNoEpochs  = errors.New("epoch: epochs must be >= 1")
)

// perIdentity is the per-node identity-establishment cost of stage 2:
// after PoW, every participant's identity (PoW solution + key) is
// exchanged and verified network-wide through the directory, so the
// stage costs perIdentity × total nodes. This is the term that makes
// formation latency grow linearly with network size (Fig. 2a).
const perIdentity = 500 * time.Millisecond

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
	// Trace configures the synthetic transaction dataset.
	Trace txgen.Config
	// NmaxFraction is the fraction of committees whose arrival closes the
	// admission window (the paper's Nmax, default 0.8): the deadline t_j
	// is the arrival time of the ⌈Nmax·|I|⌉-th committee.
	NmaxFraction float64
	// FaultInjector, when non-nil, evaluates FaultPointCommittee once per
	// member committee per epoch, and each firing fails that committee
	// mid-epoch (e.g. a DoS attack; "epoch.committee:prob=p" fails each
	// with probability p). The final committee perceives a failed
	// committee through ping probes (Section V) and excludes it from the
	// scheduling instance; its shard is lost for the epoch. If every
	// committee would fail, the first one stays alive. The injector
	// draws from its own seeded stream, not the pipeline's, so a chaos
	// run stays step-for-step alignable with its fault-free twin. Nil
	// is off.
	FaultInjector *faultinject.Injector
	// MaxDeferrals, when positive, bounds how many consecutive epochs a
	// refused committee may re-submit before its shard expires and is
	// dropped. 0 (the default) keeps the paper's unbounded deferral
	// (Fig. 3). Long-lived serving loops under sustained capacity
	// pressure need a bound: without one the deferral backlog — refused
	// shards re-queueing while fresh shards keep arriving — grows with
	// epoch count, and so do the live set and the heap.
	MaxDeferrals int
	// Supply, when non-nil, feeds each epoch's fresh shard contents from
	// an external source instead of the synthetic trace: stages 1–3 leave
	// the fresh reports' TxCounts at 0 (the trace shuffle is skipped, its
	// seed draw kept) and Supply.Fill distributes real ingested demand
	// over them (deferred committees keep the shard they already
	// packaged). Epochs where Fill leaves every shard empty are a quiet
	// window: the final committee appends an empty block. Nil is off.
	Supply ShardSupply
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
	if maxF := (c.CommitteeSize - 1) / 3; c.FaultyPerCommittee > maxF {
		return c, fmt.Errorf("%w: %d faulty replicas exceeds (n-1)/3 = %d",
			ErrBadConfig, c.FaultyPerCommittee, maxF)
	}
	if c.FaultyPerCommittee < 0 {
		c.FaultyPerCommittee = 0
	}
	if c.NmaxFraction <= 0 || c.NmaxFraction > 1 {
		c.NmaxFraction = 0.8
	}
	return c, nil
}

// ShardSupply feeds epochs from an external transaction source (the
// networked serving plane): Fill receives the epoch's fresh committee
// reports with TxCount zeroed and distributes the ingested demand over
// them by setting each report's TxCount. Fill runs on the epoch
// goroutine; implementations synchronize internally.
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
	// indices. Failed committees, empty shards and presolved shards are
	// not in the instance.
	Live []int
	// Presolved lists, ascending, the Reports indices of the arrived
	// shards of negative value that presolve took out of the instance
	// (DESIGN §5k): no optimal block could hold one. They are refused
	// like any shard the scheduler did not select.
	Presolved []int
	// DDL is the deadline t_j (seconds since epoch start).
	DDL float64
	// Instance is the scheduling input handed to the solver, after
	// presolve.
	Instance core.Instance
	// Solution is the final committee's decision.
	Solution core.Solution
	// FinalBlock is the block appended to the root chain. The chain
	// holds only a bounded tail of recent blocks, so a caller that needs
	// this one later keeps the pointer.
	FinalBlock *chain.FinalBlock
	// Deferred lists committees refused this epoch (stragglers or not
	// permitted); they re-submit next epoch with reduced latency
	// (Fig. 3).
	Deferred []CommitteeReport
}

// Clone returns a deep copy of r that stays valid after later epochs
// run: Reports, Live, Presolved, Deferred, the Instance's slices and the
// selection are copied. FinalBlock is shared with the chain.
func (r *Result) Clone() *Result {
	c := *r
	c.Reports = append([]CommitteeReport(nil), r.Reports...)
	c.Live = append([]int(nil), r.Live...)
	c.Presolved = append([]int(nil), r.Presolved...)
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
// every arrived shard and permits them in instance-index order, skipping
// any that would overflow the block. Value plays no part in its choice,
// but presolve (DESIGN §5k) has already taken the negative-value shards
// out of an instance above the block, as it does for every scheduler.
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
	// pbftMu is the location of the calibrated message delay.
	pbftMu float64
	// stageRNG and netRNG are the pipeline's generators, reseeded in
	// place with the seeds rng.Split would give. stageRNG carries the
	// calibration and trace streams in NewPipeline, then each epoch's
	// election stream, trace shuffle and PBFT stream, each used up
	// before the next is seeded; netRNG carries the network stream,
	// which interleaves with PBFT.
	stageRNG, netRNG *randx.RNG
	// deferred carries refused committees into the next epoch with
	// reduced two-phase latency.
	deferred []CommitteeReport
	epoch    int

	// The session below carries from epoch to epoch: scratch buffers the
	// epoch body reuses, and the warm-start threading between decisions.

	// reports backs memberStages' per-epoch slice (including the
	// deferred entries appended after it).
	reports []CommitteeReport
	// solvers, committees, net and quorum back stages 1–3.
	solvers    []solver
	committees []committee
	net        network
	quorum     []float64
	// arrivals backs admissionDeadline's ranking.
	arrivals []time.Duration
	// actors holds each committee ID's trace actor name.
	actors []string
	// sizes and lats back the scheduling instance's slices.
	sizes []int
	lats  []float64
	// sel backs the warm-start selection projected over Live indices.
	sel []bool
	// shards backs the final-block assembly slice (the final block keeps
	// only the shard hashes, not the ShardBlocks).
	shards []chain.ShardBlock
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
// trace, and calibrates the PBFT step time to the paper's 54.5 s
// consensus expectation.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:       cfg,
		rng:       randx.New(cfg.Seed),
		chain:     chain.NewRootChain(),
		stageRNG:  new(randx.RNG),
		netRNG:    new(randx.RNG),
		quorum:    make([]float64, 2*cfg.FaultyPerCommittee+1),
		permitted: make(map[int]bool),
	}
	// The calibration stream splits off before the trace's; that order
	// fixes every later draw.
	p.rng.SplitInto(p.stageRNG)
	step := calibrateMeanStep(p.stageRNG, cfg.CommitteeSize, cfg.FaultyPerCommittee)
	p.pbftMu = randx.LogNormalMu(step.Seconds(), pbftSigma)
	p.rng.SplitInto(p.stageRNG)
	p.trace = txgen.Generate(p.stageRNG, cfg.Trace)
	return p, nil
}

// Chain exposes the root chain for inspection.
func (p *Pipeline) Chain() *chain.RootChain { return p.chain }

// Trace exposes the generated transaction trace.
func (p *Pipeline) Trace() *txgen.Trace { return p.trace }

// phase is one wall-clock phase of an epoch run: a child span under the
// epoch root, timed for the per-phase wall-clock gauge.
type phase struct {
	o     *obs.EpochObserver
	span  *obs.Span
	start time.Time
	name  string
}

// startPhase opens the named phase under root. Everything no-ops when
// Obs is nil.
func (p *Pipeline) startPhase(root *obs.Span, name string) phase {
	o := p.cfg.Obs
	return phase{o: o, span: o.TraceCtx().StartSpan(name, "pipeline", root.Context()), start: time.Now(), name: name}
}

// end finishes the phase with an outcome ("" = ok) and records its wall
// time.
func (ph phase) end(outcome string) {
	ph.span.FinishOutcome(outcome)
	ph.o.PhaseWall(ph.name, time.Since(ph.start).Seconds())
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

	consensus := p.startPhase(root, "consensus")
	reports, formed, err := p.memberStages()
	if err != nil {
		consensus.end("error")
		return nil, err
	}
	consensus.end("")
	collect := p.startPhase(root, "collect")
	if p.cfg.Supply != nil {
		// External supply sets the fresh reports' shard sizes; deferred
		// entries (appended below) keep theirs.
		p.cfg.Supply.Fill(p.epoch, reports)
	}
	// Carried-over committees re-submit with their residual latency.
	reports = append(reports, p.deferred...)
	// Keep the (possibly grown) backing array for the next epoch.
	p.reports = reports
	p.deferred = p.deferred[:0]

	// The admission window closes when ⌈Nmax·count⌉ committees have
	// submitted; that arrival instant is the deadline t_j.
	ddl := p.deadline(reports)
	res.DDL = ddl.Seconds()
	for i := range reports {
		reports[i].Arrived = reports[i].TwoPhase <= ddl
	}
	res.Reports = reports

	// Failed committees (detected via ping, Section V) never make it into
	// the scheduling instance, and neither do committees whose shard is
	// empty this epoch; Live maps instance indices to reports.
	for i, rep := range reports {
		if !rep.Failed && reports[i].TxCount > 0 {
			res.Live = append(res.Live, i)
		}
	}
	if len(res.Live) == 0 {
		if p.cfg.Supply != nil {
			// A quiet window: no transactions arrived, so the final
			// committee appends an empty block and the epoch ends.
			collect.end("quiet-window")
			commit := p.startPhase(root, "commit")
			fb, aErr := p.chain.Append(p.epoch, formed+ddl, nil)
			if aErr != nil {
				commit.end("error")
				return nil, fmt.Errorf("epoch %d empty block: %w", p.epoch, aErr)
			}
			commit.end("empty-block")
			res.FinalBlock = fb
			committed = true
			return res, nil
		}
		collect.end("all-failed")
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
		collect.end("invalid-instance")
		return nil, fmt.Errorf("epoch %d instance: %w", p.epoch, err)
	}
	in = presolve(in, res)
	res.Instance = in
	collect.end("")

	solve := p.startPhase(root, "solve")
	sol, err := p.schedule(sched, in, res)
	if err != nil {
		solve.end("error")
		return nil, fmt.Errorf("epoch %d schedule: %w", p.epoch, err)
	}
	solve.end("")
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
		o.PermittedTxs.Add(int64(sol.Load))
		o.PermittedCommittees.Add(int64(sol.Count))
		o.PresolvedShards.Add(int64(len(res.Presolved)))
	}

	// Stage 4+5: assemble the final block from permitted shards and
	// append it (randomness refresh happens inside Append). Refused
	// committees defer to the next epoch with reduced latency (Fig. 3):
	// l' = max(l − t_j, 0) plus a fresh consensus round. The loop walks
	// the live shards in report order, presolved ones in their places, so
	// a presolve that leaves the decision unchanged leaves the deferral
	// order and the block unchanged too.
	commit := p.startPhase(root, "commit")
	shards := p.shards[:0]
	cumAge := 0.0
	nl, np := 0, 0 // next unvisited entries of res.Live and res.Presolved
	for ri, rep := range reports {
		li := -1 // rep's instance index; -1 for a presolved shard
		switch {
		case nl < len(res.Live) && res.Live[nl] == ri:
			li, nl = nl, nl+1
		case np < len(res.Presolved) && res.Presolved[np] == ri:
			np++
		default:
			continue // failed or empty: never live
		}
		if li >= 0 && li < len(sol.Selected) && sol.Selected[li] {
			sb, sbErr := chain.NewShardHeader(rep.Committee, p.epoch, rep.TwoPhase, p.shardRoot(rep), rep.TxCount)
			if sbErr != nil {
				commit.end("error")
				return nil, fmt.Errorf("epoch %d shard header: %w", p.epoch, sbErr)
			}
			shards = append(shards, sb)
			if o := p.cfg.Obs; o != nil {
				age := in.Age(li)
				cumAge += age
				o.ShardAge.Observe(age)
				o.Trace.Emit(obs.EvShardAge, p.actor(rep.Committee), age, "")
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

	fb, err := p.chain.Append(p.epoch, formed+ddl, shards)
	if err != nil {
		commit.end("error")
		return nil, fmt.Errorf("epoch %d final block: %w", p.epoch, err)
	}
	commit.end("")
	res.FinalBlock = fb
	if o := p.cfg.Obs; o != nil {
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
	for _, ri := range res.Live {
		e.Shards = append(e.Shards, shardRecord(res.Reports[ri], in.DDL))
	}
	for _, ri := range res.Presolved {
		e.Presolved = append(e.Presolved, shardRecord(res.Reports[ri], in.DDL))
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

// shardRecord is rep's journal row under the deadline ddl: the size,
// latency and age of its row in the instance before presolve.
func shardRecord(rep CommitteeReport, ddl float64) decisionlog.ShardRecord {
	lat := rep.TwoPhase.Seconds()
	return decisionlog.ShardRecord{
		Committee: rep.Committee,
		Size:      rep.TxCount,
		Latency:   lat,
		Age:       ddl - lat,
		Deferrals: rep.Deferrals,
	}
}

// presolve takes every arrived shard of negative value out of the
// epoch's validated instance when core.Instance.NegativeDropExact holds
// (DESIGN §5k), moving its Reports index from res.Live to res.Presolved.
// The instance's slices and res.Live are compacted in place, so the
// reduced set costs no allocation, and DDL keeps the full set's t_j.
// Stragglers stay, as the solver never selects them.
func presolve(in core.Instance, res *Result) core.Instance {
	if !in.NegativeDropExact() {
		return in
	}
	n := 0
	for li, ri := range res.Live {
		if in.Latencies[li] <= in.DDL && in.Value(li) < 0 {
			res.Presolved = append(res.Presolved, ri)
			continue
		}
		in.Sizes[n], in.Latencies[n], res.Live[n] = in.Sizes[li], in.Latencies[li], ri
		n++
	}
	in.Sizes, in.Latencies, res.Live = in.Sizes[:n], in.Latencies[:n], res.Live[:n]
	return in
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
	reports, _, err := p.memberStages()
	if err != nil {
		return nil, 0, err
	}
	// memberStages fills pipeline scratch; the caller gets its own copy.
	reports = append([]CommitteeReport(nil), reports...)
	ddl := p.deadline(reports)
	for i := range reports {
		reports[i].Arrived = reports[i].TwoPhase <= ddl
	}
	return reports, ddl.Seconds(), nil
}

// memberStages simulates stages 1–3 for every member committee and
// returns their reports with the time the last committee formed. Each
// stage's stream is split off p.rng in a fixed order — election,
// network, trace shuffle, PBFT — into the pipeline's two generators.
// Under a Supply the reports' TxCounts stay 0: the shuffle that would
// set them is skipped, and its seed draw is consumed so that every
// later stream keeps its seed.
func (p *Pipeline) memberStages() ([]CommitteeReport, time.Duration, error) {
	cfg := p.cfg
	nodes := cfg.Committees * cfg.CommitteeSize
	p.rng.SplitInto(p.stageRNG)
	p.solvers = elect(p.solvers, p.stageRNG, nodes)
	p.committees = formCommittees(p.committees, p.solvers, cfg.Committees, cfg.CommitteeSize)
	p.rng.SplitInto(p.netRNG)
	p.net = newNetwork(p.net.factors, p.netRNG, nodes)

	reports := p.scratchReports(cfg.Committees)
	if cfg.Supply != nil {
		p.rng.Uint64() // the shuffle's seed draw
	} else {
		p.rng.SplitInto(p.stageRNG)
		shards, err := p.trace.IntoShards(p.stageRNG, cfg.Committees)
		if err != nil {
			return nil, 0, fmt.Errorf("shard trace: %w", err)
		}
		for ci := range reports {
			reports[ci].TxCount = shards[ci].TxTotal
		}
	}
	p.rng.SplitInto(p.stageRNG)
	// Stage 2's network-wide identity establishment: every node's PoW
	// solution and key are verified through the directory, costing
	// perIdentity per participant regardless of committee.
	identityLatency := time.Duration(nodes) * perIdentity
	// Stage 1 finishes when the committee's last seat fills. Seats are
	// dealt round-robin in solve order, so formedAt never decreases with
	// the committee ID: ID order is formation order, and the last
	// committee forms last.
	var formed time.Duration
	for ci, com := range p.committees {
		formed = com.formedAt
		cfgLatency := p.net.configureOverlay(com.members) + identityLatency
		total := consensusLatency(p.quorum, p.stageRNG, cfg.CommitteeSize, cfg.FaultyPerCommittee, p.pbftMu)
		reports[ci] = CommitteeReport{
			Committee: ci,
			Formation: formed + cfgLatency,
			Consensus: total,
			TwoPhase:  formed + cfgLatency + total,
			TxCount:   reports[ci].TxCount,
		}
	}
	if fi := cfg.FaultInjector; fi != nil {
		anyLive := false
		for ci := range reports {
			if fi.Eval(FaultPointCommittee).Action != faultinject.ActNone {
				reports[ci].Failed = true
				if o := cfg.Obs; o != nil {
					o.Trace.Emit(obs.EvDistFault, FaultPointCommittee,
						float64(p.epoch), p.actor(reports[ci].Committee))
				}
			} else {
				anyLive = true
			}
		}
		if !anyLive {
			// Keep the first committee alive so the epoch can proceed.
			reports[0].Failed = false
		}
	}
	if o := cfg.Obs; o != nil {
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
	return reports, formed, nil
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

// shardRoot derives a shard block's commitment from the committee
// identity, the epoch and the TX count: the pipeline models a member
// committee's shard by its size alone, so there are no transactions to
// build a Merkle tree over.
func (p *Pipeline) shardRoot(rep CommitteeReport) chain.Hash {
	tx := chain.Transaction{
		ID:     uint64(rep.Committee)<<32 | uint64(p.epoch),
		Amount: uint64(rep.TxCount),
	}
	return tx.Hash()
}

// actor returns committee id's trace actor name, built once per ID.
func (p *Pipeline) actor(id int) string {
	for len(p.actors) <= id {
		p.actors = append(p.actors, fmt.Sprintf("committee-%d", len(p.actors)))
	}
	return p.actors[id]
}

// deadline is admissionDeadline at the configured Nmax, ranking in the
// pipeline's arrivals scratch.
func (p *Pipeline) deadline(reports []CommitteeReport) time.Duration {
	p.arrivals = slices.Grow(p.arrivals[:0], len(reports))
	return admissionDeadline(p.arrivals, reports, p.cfg.NmaxFraction)
}

// admissionDeadline returns the arrival time of the ⌈fraction·n⌉-th
// committee (ascending two-phase latency) among the committees that can
// still submit: failed committees never arrive (the final committee's
// pings have confirmed their death, Section V), so they cannot close
// the admission window. It ranks the latencies in lat's backing array.
func admissionDeadline(lat []time.Duration, reports []CommitteeReport, fraction float64) time.Duration {
	lat = lat[:0]
	for _, r := range reports {
		if !r.Failed {
			lat = append(lat, r.TwoPhase)
		}
	}
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
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
