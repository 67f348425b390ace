// Package pbft simulates Practical Byzantine Fault Tolerance, the
// intra-committee consensus protocol of the sharded blockchain (stage 3 of
// every epoch). The total consensus latency is the sum of the voting time
// spent on the three phases — pre-prepare, prepare, and commit — exactly
// how the paper accounts for it; the evaluation sets the expectation to
// 54.5 seconds.
//
// The simulation models a committee of n replicas with up to
// f = ⌊(n−1)/3⌋ Byzantine members. Each phase completes when a quorum of
// 2f+1 matching messages has been collected; the phase latency is the
// quorum-th order statistic of the per-replica message delays (silent
// faulty replicas simply never contribute, pushing the quorum deeper into
// the latency tail). If the primary is faulty, a view change adds a
// timeout plus one extra round before a correct primary drives the
// protocol.
package pbft

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mvcom/internal/randx"
)

// Errors returned by the simulator.
var (
	ErrTooSmall  = errors.New("pbft: committee smaller than 4 replicas")
	ErrTooFaulty = errors.New("pbft: faulty replicas exceed (n-1)/3")
)

// Phase identifies one of the three PBFT phases.
type Phase int

// The three phases of PBFT in protocol order.
const (
	PrePrepare Phase = iota + 1
	Prepare
	Commit
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PrePrepare:
		return "pre-prepare"
	case Prepare:
		return "prepare"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Config parameterizes one consensus run.
type Config struct {
	// Replicas is the committee size n. Minimum 4.
	Replicas int
	// Faulty is the number of Byzantine (silent) replicas. Must satisfy
	// Faulty <= (Replicas-1)/3.
	Faulty int
	// MeanStep is the mean per-replica message delay within a phase,
	// chosen so that three phases sum to the paper's 54.5 s expectation by
	// default (54.5/3 s each). Default 54.5/3 seconds.
	MeanStep time.Duration
	// StepSpread is the lognormal sigma of per-replica delays. Default 0.4.
	StepSpread float64
	// ViewTimeout is charged when the primary is faulty and a view change
	// is needed. Default 4 × MeanStep.
	ViewTimeout time.Duration
	// PrimaryFaulty forces the initial primary to be one of the faulty
	// replicas (only meaningful when Faulty > 0).
	PrimaryFaulty bool
}

// DefaultMeanTotal is the paper's expected intra-committee consensus
// latency.
const DefaultMeanTotal = 54500 * time.Millisecond

func (c Config) withDefaults() (Config, error) {
	if c.Replicas < 4 {
		return c, ErrTooSmall
	}
	if c.Faulty < 0 || c.Faulty > (c.Replicas-1)/3 {
		return c, fmt.Errorf("%w: n=%d f=%d", ErrTooFaulty, c.Replicas, c.Faulty)
	}
	if c.MeanStep <= 0 {
		c.MeanStep = DefaultMeanTotal / 3
	}
	if c.StepSpread <= 0 {
		c.StepSpread = 0.4
	}
	if c.ViewTimeout <= 0 {
		c.ViewTimeout = 4 * c.MeanStep
	}
	return c, nil
}

// PhaseResult records the outcome of one phase.
type PhaseResult struct {
	Phase   Phase
	Quorum  int           // messages needed (2f+1)
	Latency time.Duration // time to collect the quorum
}

// Result is the outcome of one consensus run.
type Result struct {
	Config      Config
	ViewChanges int
	Phases      []PhaseResult
	// Total is the consensus latency: Σ phase latencies plus view-change
	// penalties.
	Total time.Duration
}

// Run simulates one PBFT consensus instance and returns the phase
// breakdown.
func Run(rng *randx.RNG, cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg}
	quorum := 2*cfg.Faulty + 1

	if cfg.PrimaryFaulty && cfg.Faulty > 0 {
		// The faulty primary stalls the pre-prepare; replicas time out and
		// elect the next primary, costing the timeout plus a round of
		// view-change messages.
		res.ViewChanges = 1
		res.Total += cfg.ViewTimeout
		res.Total += quorumLatency(rng, cfg, quorum)
	}

	for _, ph := range []Phase{PrePrepare, Prepare, Commit} {
		lat := quorumLatency(rng, cfg, quorum)
		res.Phases = append(res.Phases, PhaseResult{Phase: ph, Quorum: quorum, Latency: lat})
		res.Total += lat
	}
	return res, nil
}

// quorumLatency samples per-replica contribution delays for one phase and
// returns the time at which the quorum-th correct message arrives. Faulty
// replicas never contribute.
func quorumLatency(rng *randx.RNG, cfg Config, quorum int) time.Duration {
	correct := cfg.Replicas - cfg.Faulty
	delays := make([]float64, correct)
	for i := range delays {
		delays[i] = rng.LogNormalMeanSpread(cfg.MeanStep.Seconds(), cfg.StepSpread)
	}
	sort.Float64s(delays)
	idx := quorum - 1
	if idx >= len(delays) {
		idx = len(delays) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return time.Duration(delays[idx] * float64(time.Second))
}

// CalibrateMeanStep returns the MeanStep that makes the expected total
// consensus latency of cfg equal targetTotal. Phase latencies are order
// statistics of lognormal samples, which scale linearly in MeanStep, so a
// pilot run at MeanStep = 1 s measures the scale factor exactly (up to
// Monte-Carlo noise over the given number of samples).
func CalibrateMeanStep(rng *randx.RNG, cfg Config, targetTotal time.Duration, samples int) (time.Duration, error) {
	if samples < 1 {
		samples = 200
	}
	if targetTotal <= 0 {
		return 0, errors.New("pbft: non-positive calibration target")
	}
	pilot := cfg
	pilot.MeanStep = time.Second
	pilot.ViewTimeout = 4 * time.Second
	var sum float64
	for i := 0; i < samples; i++ {
		res, err := Run(rng, pilot)
		if err != nil {
			return 0, err
		}
		sum += res.Total.Seconds()
	}
	perUnit := sum / float64(samples) // seconds of total per second of MeanStep
	return time.Duration(targetTotal.Seconds() / perUnit * float64(time.Second)), nil
}

// MaxFaulty returns the largest tolerable number of Byzantine replicas for
// a committee of n.
func MaxFaulty(n int) int {
	if n < 4 {
		return 0
	}
	return (n - 1) / 3
}
