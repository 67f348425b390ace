package epoch

// Serve is the pipeline's one epoch driver: it runs epochs against an
// EpochStream, reusing per-epoch scratch buffers (no steady-state
// allocation growth across thousands of epochs) and threading each
// epoch's scheduling decision into the next as a warm start for
// warm-capable schedulers. RunEpoch and RunEpochs serve a FixedStream;
// cmd/mvcom-soak drives the loop under fault injection to prove memory
// and goroutine discipline.

import (
	"context"
	"fmt"

	"mvcom/internal/core"
)

// EpochParams are the per-epoch scheduling parameters an EpochStream
// supplies: the MVCom instance knobs RunEpoch takes as arguments.
type EpochParams struct {
	Alpha    float64
	Capacity int
	Nmin     int
}

// EpochStream drives a Serve loop. NextContext supplies the parameters
// for the coming epoch (ok = false ends the loop cleanly); it may block
// for real wall-clock time — a networked stream waiting for traffic —
// but must return promptly (any params, either ok) once ctx is done.
// Serve re-checks the context after it returns, so a cancel ends the
// loop with ctx.Err() however NextContext answered. Deliver consumes
// the epoch's result.
//
// The Result and everything it references — Reports, Live, Presolved,
// Deferred, and the Instance's slices — are scratch owned by the pipeline and
// valid only until the next epoch starts; Deliver implementations must
// copy whatever they keep (Result.Clone copies all of it).
type EpochStream interface {
	NextContext(ctx context.Context, epoch int) (EpochParams, bool)
	Deliver(res *Result) error
}

// FixedStream is the simplest EpochStream: N epochs with constant
// parameters, each result forwarded to OnResult (which may be nil).
// N <= 0 serves until the context is canceled or OnResult errors.
type FixedStream struct {
	N        int
	Params   EpochParams
	OnResult func(*Result) error

	served int
}

// NextContext implements EpochStream; it never blocks.
func (s *FixedStream) NextContext(context.Context, int) (EpochParams, bool) {
	if s.N > 0 && s.served >= s.N {
		return EpochParams{}, false
	}
	s.served++
	return s.Params, true
}

// Deliver implements EpochStream.
func (s *FixedStream) Deliver(res *Result) error {
	if s.OnResult == nil {
		return nil
	}
	return s.OnResult(res)
}

// WarmScheduler is a Scheduler that can seed its search from the
// previous epoch's decision. Serve threads the warm start through this
// interface; schedulers that do not implement it are simply called cold
// every epoch.
type WarmScheduler interface {
	Scheduler
	// ScheduleFrom schedules in, optionally seeded from prev (the
	// previous epoch's selection mapped onto in's shard indices). prev
	// is read-only.
	ScheduleFrom(in core.Instance, prev core.Solution) (core.Solution, error)
}

// ScheduleFrom implements WarmScheduler when the wrapped Solver is
// warm-capable (core.WarmSolver); other solvers are called cold.
func (s SolverScheduler) ScheduleFrom(in core.Instance, prev core.Solution) (core.Solution, error) {
	if ws, ok := s.Solver.(core.WarmSolver); ok {
		sol, _, err := ws.SolveFrom(in, prev)
		return sol, err
	}
	sol, _, err := s.Solver.Solve(in)
	return sol, err
}

var _ WarmScheduler = SolverScheduler{}

// Serve runs epochs until the stream ends, the context is canceled, or
// an epoch fails. Between epochs it threads the previous decision into
// warm-capable schedulers (WarmScheduler) and reuses the per-epoch run
// state, so a long-lived serving loop neither cold-starts the chain
// every epoch nor grows the heap with epoch count. Both carry across
// Serve calls on one pipeline, as the deferral backlog does. Schedulers
// must not mutate the instance's slices (the core.Solver contract):
// they get the scratch-backed instance without a defensive clone.
// Serve is not re-entrant: a call from inside Deliver (RunEpoch
// included) returns ErrBadConfig.
func (p *Pipeline) Serve(ctx context.Context, sched Scheduler, stream EpochStream) error {
	if sched == nil {
		return fmt.Errorf("%w: nil scheduler", ErrBadConfig)
	}
	if stream == nil {
		return fmt.Errorf("%w: nil stream", ErrBadConfig)
	}
	if p.serving {
		return fmt.Errorf("%w: pipeline is already serving", ErrBadConfig)
	}
	p.serving = true
	defer func() { p.serving = false }()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		params, ok := stream.NextContext(ctx, p.epoch+1)
		// NextContext may have blocked across a cancellation; surface
		// ctx.Err() rather than running one more epoch (or masking the
		// cancel as a clean stream end).
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ok {
			return nil
		}
		res, err := p.runEpoch(sched, params.Alpha, params.Capacity, params.Nmin)
		if err != nil {
			return err
		}
		if err := stream.Deliver(res); err != nil {
			return err
		}
	}
}

// newResult resets the reused per-epoch Result (slices truncated, not
// freed) for the coming epoch.
func (p *Pipeline) newResult() *Result {
	res := &p.result
	*res = Result{
		Epoch:     p.epoch,
		Live:      res.Live[:0],
		Presolved: res.Presolved[:0],
		Deferred:  res.Deferred[:0],
	}
	return res
}

// scratchReports returns the zeroed report scratch for memberStages.
func (p *Pipeline) scratchReports(n int) []CommitteeReport {
	if cap(p.reports) < n {
		p.reports = make([]CommitteeReport, n)
	}
	rs := p.reports[:n]
	clear(rs)
	return rs
}

// scratchInstance returns the size/latency slices for the epoch's
// scheduling instance.
func (p *Pipeline) scratchInstance(n int) ([]int, []float64) {
	if cap(p.sizes) < n {
		p.sizes = make([]int, n)
		p.lats = make([]float64, n)
	}
	return p.sizes[:n], p.lats[:n]
}

// schedule invokes the scheduler for the built instance. When both
// sides are warm-capable it seeds the search from the previous epoch's
// decision projected onto this epoch's live committees (committee IDs
// are the identity that survives re-formation; departed or newly quiet
// committees simply drop out of the projection, exactly as a leave
// trims the SE state space).
func (p *Pipeline) schedule(sched Scheduler, in core.Instance, res *Result) (core.Solution, error) {
	p.warmUsed = false
	ws, warm := sched.(WarmScheduler)
	if !warm || !p.havePrev {
		return sched.Schedule(in)
	}
	if cap(p.sel) < len(res.Live) {
		p.sel = make([]bool, len(res.Live))
	}
	sel := p.sel[:0]
	for _, ri := range res.Live {
		sel = append(sel, p.permitted[res.Reports[ri].Committee])
	}
	p.sel = sel
	p.warmUsed = true
	return ws.ScheduleFrom(in, core.Solution{Selected: sel})
}

// recordPermitted remembers which committee IDs this epoch's decision
// selected, feeding the next epoch's warm start. Quiet epochs (no
// decision: an empty selection) keep the previous set — wiping it would
// cold-start the scheduler on the first busy epoch after every lull.
func (p *Pipeline) recordPermitted(res *Result) {
	any := false
	for li := range res.Live {
		if li < len(res.Solution.Selected) && res.Solution.Selected[li] {
			any = true
			break
		}
	}
	if !any {
		return
	}
	clear(p.permitted)
	for li, ri := range res.Live {
		if li < len(res.Solution.Selected) && res.Solution.Selected[li] {
			p.permitted[res.Reports[ri].Committee] = true
		}
	}
	p.havePrev = true
}
