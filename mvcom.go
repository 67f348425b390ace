// Package mvcom is the public API of the MVCom library — a from-scratch
// reproduction of "MVCom: Scheduling Most Valuable Committees for the
// Large-Scale Sharded Blockchain" (Huang et al., IEEE ICDCS 2021).
//
// In an Elastico-style sharded blockchain, member committees form via
// PoW, reach intra-committee PBFT consensus over disjoint transaction
// shards, and submit the shards to a final committee that assembles the
// global block. Committees finish at very different times (the two-phase
// latency l_i), so the final committee must trade the number of permitted
// transactions against their cumulative age. MVCom formalizes that as a
// utility-maximization problem
//
//	max U = Σ_i x_i (α·s_i − (t_j − l_i))
//	s.t.  Σ x_i ≥ Nmin,  Σ x_i s_i ≤ Ĉ,  x_i ∈ {0,1}
//
// (NP-hard by reduction from 0/1 knapsack) and solves it online with a
// distributed Stochastic-Exploration (SE) algorithm whose Markov chain has
// the Gibbs stationary distribution p*_f ∝ exp(β·U_f).
//
// # Quick start
//
//	in := mvcom.Instance{
//		Sizes:     []int{1200, 900, 2100, 1500},    // TXs per shard (s_i)
//		Latencies: []float64{812, 930, 1105, 988},  // two-phase latency (l_i, s)
//		Alpha:     1.5,                             // throughput weight
//		Capacity:  4000,                            // final-block capacity (Ĉ)
//		Nmin:      2,                               // minimum committees
//	}
//	sched := mvcom.NewScheduler(mvcom.SchedulerConfig{Seed: 1})
//	sol, trace, err := sched.Solve(in)
//
// The library also ships the full evaluation substrate — PoW committee
// formation, PBFT consensus simulation, the five-stage epoch pipeline, a
// synthetic Bitcoin-like transaction trace, the paper's SA/DP/WOA
// baselines, a TCP-distributed execution mode, and runners that regenerate
// every data figure of the paper. See the README for the map.
package mvcom

import (
	"io"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/epoch"
	"mvcom/internal/experiments"
)

// Core problem and solver types, re-exported from the implementation.
type (
	// Instance is one epoch's scheduling input: shard sizes, two-phase
	// latencies, deadline, α, capacity, and Nmin.
	Instance = core.Instance
	// Solution is a selected subset of shards with its cached utility,
	// load, and count.
	Solution = core.Solution
	// TracePoint is one point of a best-so-far convergence curve.
	TracePoint = core.TracePoint
	// SchedulerConfig tunes the Stochastic-Exploration algorithm (β, Γ,
	// iteration budget, seed).
	SchedulerConfig = core.SEConfig
	// Scheduler is the Stochastic-Exploration solver.
	Scheduler = core.SE
	// Engine is the stepping interface to the SE Markov chain, for
	// callers that interleave exploration with external coordination.
	Engine = core.Engine
	// Event is a dynamic committee join/leave event.
	Event = core.Event
	// EventKind distinguishes joins from leaves.
	EventKind = core.EventKind
	// Solver is the contract shared by SE and the baselines.
	Solver = core.Solver
	// MixingBounds brackets the chain's mixing time (Theorem 1).
	MixingBounds = core.MixingBounds
	// FailurePerturbation carries the Theorem 2 failure bounds.
	FailurePerturbation = core.FailurePerturbation
)

// Dynamic event kinds.
const (
	// EventJoin is a committee submitting its shard after the run began.
	EventJoin = core.EventJoin
	// EventLeave is a committee failing or withdrawing mid-run.
	EventLeave = core.EventLeave
)

// Baseline solvers from the paper's evaluation (Section VI-B).
type (
	// SimulatedAnnealing is the SA baseline.
	SimulatedAnnealing = baseline.SA
	// DynamicProgramming is the DP (scaled knapsack) baseline.
	DynamicProgramming = baseline.DP
	// WhaleOptimization is the WOA baseline.
	WhaleOptimization = baseline.WOA
	// Greedy is a value-density heuristic reference point.
	Greedy = baseline.Greedy
	// BruteForce is the exact solver for small instances.
	BruteForce = baseline.BruteForce
)

// Epoch pipeline types (the Elastico 5-stage substrate).
type (
	// PipelineConfig parameterizes the epoch pipeline.
	PipelineConfig = epoch.Config
	// Pipeline runs Elastico epochs over a root chain.
	Pipeline = epoch.Pipeline
	// CommitteeReport is one committee's two-phase latency and shard
	// size.
	CommitteeReport = epoch.CommitteeReport
	// EpochResult is one epoch's full outcome.
	EpochResult = epoch.Result
	// EpochScheduler decides which shards the final committee permits.
	EpochScheduler = epoch.Scheduler
	// SolverScheduler adapts a Solver into an EpochScheduler.
	SolverScheduler = epoch.SolverScheduler
	// AcceptAll is the no-scheduling baseline policy.
	AcceptAll = epoch.AcceptAll
)

// Experiment harness types.
type (
	// FigureResult is the renderer-agnostic output of a figure runner.
	FigureResult = experiments.FigureResult
	// FigureOptions tunes figure regeneration (seed, scale).
	FigureOptions = experiments.Options
)

// NewScheduler returns the Stochastic-Exploration solver, the paper's
// contribution. The zero config uses β=2, Γ=1.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return core.NewSE(cfg) }

// NewEngine prepares a stepping SE chain for the given instance.
func NewEngine(in Instance, cfg SchedulerConfig) (*Engine, error) {
	return core.NewEngine(in, cfg)
}

// NewPipeline builds the five-stage Elastico epoch pipeline.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return epoch.NewPipeline(cfg) }

// ReproduceFigure regenerates one of the paper's data figures ("2a", "2b",
// "8", "9a", "9b", "10", "11", "12", "13", "14").
func ReproduceFigure(id string, opts FigureOptions) (FigureResult, error) {
	return experiments.Run(id, opts)
}

// WriteFigureTSV renders a figure's series as tab-separated values.
func WriteFigureTSV(w io.Writer, f FigureResult) error { return f.WriteTSV(w) }

// Figures lists the regenerable figure IDs.
func Figures() []string { return experiments.IDs() }

// MixingTimeBounds evaluates the Theorem 1 bracket on the SE chain's
// mixing time.
func MixingTimeBounds(numShards int, beta, tau, umax, umin, eps float64) (MixingBounds, error) {
	return core.MixingTimeBounds(numShards, beta, tau, umax, umin, eps)
}

// PerturbationBound evaluates the Theorem 2 bounds for a single committee
// failure given the best utility in the trimmed space.
func PerturbationBound(bestTrimmedUtility float64) FailurePerturbation {
	return core.PerturbationBound(bestTrimmedUtility)
}

// OptimalityLossBound returns the log-sum-exp approximation loss
// (1/β)·log|F| of Remark 1.
func OptimalityLossBound(beta float64, numShards int) (float64, error) {
	return core.OptimalityLossBound(beta, numShards)
}
