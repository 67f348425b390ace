package decisionlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"mvcom/internal/core"
)

// ErrNotReplayable marks entries the verifier must skip: decisions whose
// solver kind is not deterministic from the recorded inputs (opaque
// schedulers, runs with dynamic events, the accept-all baseline which has
// no solver to re-run), decisions of the removed adaptive schedule or of
// a nonzero τ, and entries that ask for more work than the replay budget.
var ErrNotReplayable = errors.New("decisionlog: entry is not replayable")

// Replay takes its round counts, its Γ, its Set-timer retries and its
// instance from the entry, so a corrupt or hostile entry would decide
// how long a verifier runs and how much it allocates:
//   - MaxIters 2^40 is days of rounds;
//   - swapRetries 2^40 on an instance whose swaps are all
//     capacity-infeasible spins for days inside one round;
//   - before the first round every explorer allocates per-thread state
//     over every shard, Γ × min(maxThreads, shards − 1) × shards cells,
//     so a wide Γ over a long shard list asks for gigabytes.
//
// The largest decisions the recorders write by default are an mvcom-dist
// epoch of two 20 000-round tasks at Γ 1, an mvcom-soak epoch of 2 000
// rounds at Γ 4 and an mvcom-serve epoch of 800 rounds at Γ 4. Every
// recorder solves at swapRetries 8. The most state is an mvcom-serve
// epoch: Γ 4 × 64 threads × at most 192 live shards (64 committees, each
// deferred at most twice), about 50 000 cells. Every cap sits about 100×
// above those, far past any default recording. The infeasible-swap
// instance of TestReplayBudget at 4 000 000 rounds and swapRetries 1 000
// replays in about 34 s on a 2-vCPU Xeon: slow, but not days.
const (
	// maxReplayExplorerRounds caps rounds × Γ for one entry, summed over
	// the tasks of a dist entry.
	maxReplayExplorerRounds = 4_000_000
	// maxReplayGamma caps the explorer count Γ.
	maxReplayGamma = 400
	// maxReplaySwapRetries caps Set-timer's resampling attempts.
	maxReplaySwapRetries = 1_000
	// maxReplayStateCells caps Γ × min(maxThreads, shards − 1) × shards.
	maxReplayStateCells = 5_000_000
)

// errReplayBudget skips an entry whose replay would exceed a cap.
var errReplayBudget = fmt.Errorf("%w (replay budget)", ErrNotReplayable)

// Replay re-runs the recorded decision from the entry's inputs and
// returns the reproduced solution. The replay-equivalence contract:
// for KindSE the solver is rebuilt from the fingerprint (including the
// warm-start path when Warm is set) and must walk the identical RNG
// stream; for KindDist each task record is re-run as an engine stepped
// exactly Iterations rounds under the task's seed. In both cases the
// result must match the entry bit-identically — same selected indices,
// same float64 utility — because the solve is a deterministic function
// of (instance, config, seed) and the utility a deterministic fold over
// the selection in index order.
func Replay(e *Entry) (core.Solution, error) {
	if e.Schema > SchemaVersion {
		return core.Solution{}, fmt.Errorf("decisionlog: entry schema %d newer than supported %d", e.Schema, SchemaVersion)
	}
	if e.NonReplayable != "" {
		return core.Solution{}, fmt.Errorf("%w (%s)", ErrNotReplayable, e.NonReplayable)
	}
	if e.Solver.Adaptive {
		// Solved under the adaptive β/Γ schedule, which no longer
		// exists: the fixed chain would walk a different trajectory.
		return core.Solution{}, fmt.Errorf("%w (adaptive)", ErrNotReplayable)
	}
	if e.Solver.Tau != 0 {
		// Solved under a nonzero τ, which no longer exists: τ shifts
		// every timer rate alike, but it also decided whether the race
		// ran in linear or log space, so the fixed chain need not walk
		// the same trajectory.
		return core.Solution{}, fmt.Errorf("%w (tau)", ErrNotReplayable)
	}
	in := e.Instance()
	switch e.Solver.Kind {
	case KindSE:
		se := core.NewSE(e.Solver.SEConfig())
		if cfg := se.Config(); !withinBudget(cfg, len(e.Shards), int64(cfg.MaxIters)) {
			return core.Solution{}, errReplayBudget
		}
		if e.Warm {
			prev := core.Solution{Selected: selectionMask(e.WarmPrev, len(e.Shards))}
			sol, _, err := se.SolveFrom(in, prev)
			return sol, err
		}
		sol, _, err := se.Solve(in)
		return sol, err
	case KindDist:
		return replayDist(e, in)
	default:
		return core.Solution{}, fmt.Errorf("%w (kind %q)", ErrNotReplayable, e.Solver.Kind)
	}
}

// replayDist re-runs every task of a distributed decision and picks the
// best, mirroring the coordinator's strict-greater first-wins rule.
// Each successful task must itself reproduce bit-identically; the
// decision then falls out of the same max.
func replayDist(e *Entry, in core.Instance) (core.Solution, error) {
	if len(e.Tasks) == 0 {
		return core.Solution{}, fmt.Errorf("%w (dist entry has no task records)", ErrNotReplayable)
	}
	base := core.SEConfig{Beta: e.Solver.Beta, Gamma: e.Solver.Gamma}
	cfg := core.NewSE(base).Config()
	var rounds int64
	for _, t := range e.Tasks {
		if replayed(t) && t.Iterations > 0 {
			// Clamped, so a huge count cannot wrap the sum below the cap.
			rounds += int64(min(t.Iterations, maxReplayExplorerRounds+1))
		}
		if !withinBudget(cfg, len(e.Shards), rounds) {
			return core.Solution{}, errReplayBudget
		}
	}
	var best core.Solution
	have := false
	for _, t := range e.Tasks {
		if !replayed(t) {
			continue
		}
		cfg := base
		cfg.Seed = t.Seed
		eng, err := core.NewEngine(in, cfg)
		if err != nil {
			return core.Solution{}, fmt.Errorf("decisionlog: replay task %s: %w", t.TaskID, err)
		}
		eng.StepN(t.Iterations)
		sol, err := eng.Best()
		if err != nil {
			return core.Solution{}, fmt.Errorf("decisionlog: replay task %s: %w", t.TaskID, err)
		}
		if sol.Utility != t.Utility || !sameIndices(sol.Indices(), t.Selected) {
			return core.Solution{}, fmt.Errorf("decisionlog: replay task %s diverged: got utility %v selected %v, recorded %v %v",
				t.TaskID, sol.Utility, sol.Indices(), t.Utility, t.Selected)
		}
		if !have || sol.Utility > best.Utility {
			best, have = sol, true
		}
	}
	if !have {
		return core.Solution{}, fmt.Errorf("%w (no successful task records)", ErrNotReplayable)
	}
	return best, nil
}

// replayed reports whether replayDist re-runs a task record: only a
// task that succeeded has a selection to reproduce.
func replayed(t TaskRecord) bool { return t.Err == "" && t.Selected != nil }

// withinBudget reports whether replaying cfg over shards shards for
// rounds rounds per explorer stays inside every replay cap. cfg carries
// core's defaults, so Γ and maxThreads are at least 1.
func withinBudget(cfg core.SEConfig, shards int, rounds int64) bool {
	gamma := int64(cfg.Gamma)
	threads := int64(min(cfg.MaxThreads, shards-1))
	return cfg.Gamma <= maxReplayGamma &&
		rounds <= maxReplayExplorerRounds/gamma &&
		cfg.SwapRetries <= maxReplaySwapRetries &&
		threads*int64(shards) <= maxReplayStateCells/gamma
}

// sameIndices compares two ascending index slices, treating nil and
// empty as equal.
func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Verify checks that the entry's presolve held, then replays it and
// asserts the reproduction is bit-identical to the recorded decision. A
// nil error means the entry is proven faithful; ErrNotReplayable (check
// with errors.Is) means the entry is legitimately unverifiable and
// should be counted as skipped, not failed. A presolve that broke its
// rule fails even an entry that cannot be replayed.
func Verify(e *Entry) error {
	if err := verifyPresolve(e); err != nil {
		return err
	}
	sol, err := Replay(e)
	if err != nil {
		return err
	}
	if sol.Utility != e.Utility {
		return fmt.Errorf("decisionlog: epoch %d replay utility %v != recorded %v", e.Epoch, sol.Utility, e.Utility)
	}
	if !sameIndices(sol.Indices(), e.Selected) {
		return fmt.Errorf("decisionlog: epoch %d replay selected %v != recorded %v", e.Epoch, sol.Indices(), e.Selected)
	}
	if e.Solver.Kind == KindSE && (sol.Load != e.Load || sol.Count != e.Count) {
		return fmt.Errorf("decisionlog: epoch %d replay load/count %d/%d != recorded %d/%d",
			e.Epoch, sol.Load, sol.Count, e.Load, e.Count)
	}
	return nil
}

// verifyPresolve checks that the entry's Presolved rows obeyed the
// presolve rule (DESIGN §5k): the instance before presolve meets
// core.Instance.NegativeDropExact, and each presolved row arrived with
// negative value. Value is recomputed by the same expression the
// pipeline evaluated, so the float64 is the same.
func verifyPresolve(e *Entry) error {
	if len(e.Presolved) == 0 {
		return nil
	}
	full := e.FullInstance()
	if !full.NegativeDropExact() {
		return fmt.Errorf("decisionlog: epoch %d presolved %d shards outside the rule: it needs nmin <= 1 (got %d), arrived volume over capacity %d, and an arrived non-negative shard that fits",
			e.Epoch, len(e.Presolved), e.Nmin, e.Capacity)
	}
	for k := range e.Presolved {
		i := len(e.Shards) + k
		if full.Latencies[i] > full.DDL || full.Value(i) >= 0 {
			return fmt.Errorf("decisionlog: epoch %d presolved committee %d is not an arrived shard of negative value (latency %v, ddl %v, value %v)",
				e.Epoch, e.Presolved[k].Committee, full.Latencies[i], full.DDL, full.Value(i))
		}
	}
	return nil
}

// VerifyStats summarizes a verification pass over a journal.
type VerifyStats struct {
	Entries  int      `json:"entries"`
	Replayed int      `json:"replayed"`
	Skipped  int      `json:"skipped"`
	Failed   int      `json:"failed"`
	Errors   []string `json:"errors,omitempty"`
	// TornTail reports that the last segment ended in a line without its
	// newline — an append cut short by a crash — which was skipped.
	TornTail bool `json:"tornTail,omitempty"`
}

// Ok reports whether every replayable entry verified.
func (s VerifyStats) Ok() bool { return s.Failed == 0 }

// VerifyAll verifies every entry, partitioning them into replayed
// (proven bit-identical), skipped (ErrNotReplayable), and failed
// (divergence or replay error, messages collected in Errors).
func VerifyAll(entries []Entry) VerifyStats {
	st := VerifyStats{Entries: len(entries)}
	for i := range entries {
		switch err := Verify(&entries[i]); {
		case err == nil:
			st.Replayed++
		case errors.Is(err, ErrNotReplayable):
			st.Skipped++
		default:
			st.Failed++
			st.Errors = append(st.Errors, err.Error())
		}
	}
	return st
}

// ReadFile decodes one journal segment (JSON lines). Unknown fields are
// ignored; entries from a newer schema are returned as-is (Replay
// rejects them). A final line without its newline is an append the
// writer never finished: it is skipped and reported as torn.
func ReadFile(path string) (entries []Entry, torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("decisionlog: %w", err)
	}
	return decodeSegment(b, path)
}

// decodeSegment decodes a segment's JSON lines; name labels its errors.
// Empty lines are skipped, and so is a final line without its newline,
// which is reported as torn.
func decodeSegment(b []byte, name string) (out []Entry, torn bool, err error) {
	for line := 1; len(b) > 0; line++ {
		n := bytes.IndexByte(b, '\n')
		if n < 0 {
			return out, true, nil
		}
		if n > 0 {
			var e Entry
			if err := json.Unmarshal(b[:n], &e); err != nil {
				return nil, false, fmt.Errorf("decisionlog: %s:%d: %w", name, line, err)
			}
			out = append(out, e)
		}
		b = b[n+1:]
	}
	return out, false, nil
}

// ReadDir decodes every segment in a journal directory, oldest segment
// first, so entries come back in append order. A torn final line of the
// last segment (Open truncates it when the journal resumes) is skipped
// and reported; a torn line in an earlier segment, or a line that does
// not decode, fails the read.
func ReadDir(dir string) (entries []Entry, tornTail bool, err error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, false, fmt.Errorf("decisionlog: %w", err)
	}
	for i, s := range segs {
		es, torn, err := ReadFile(s)
		if err != nil {
			return nil, false, err
		}
		if torn && i < len(segs)-1 {
			return nil, false, fmt.Errorf("decisionlog: %s: torn final line in a rotated segment", s)
		}
		entries = append(entries, es...)
		tornTail = torn
	}
	return entries, tornTail, nil
}

// VerifyDir reads and verifies a whole journal directory — the CI-gate
// entry point used by mvcom-soak and mvcom-cluster.
func VerifyDir(dir string) (VerifyStats, error) {
	entries, torn, err := ReadDir(dir)
	if err != nil {
		return VerifyStats{}, err
	}
	st := VerifyAll(entries)
	st.TornTail = torn
	return st, nil
}
