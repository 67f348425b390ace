// Package decisionlog is the decision-provenance layer: an append-only,
// schema-versioned epoch audit journal recording *why* each epoch's
// committee set was selected — the full scheduling inputs, the solver
// configuration fingerprint, the selected set with per-committee
// marginal utilities, the top rejected candidates with the utility an
// admission would have cost elsewhere, deferral/expiry events with
// their MaxDeferrals attribution, and the solve's convergence digest.
//
// The journal exists to be *checked*, not just read: every entry whose
// solver fingerprint names a deterministic kind ("se" or "dist" with
// the adaptive schedule off and no dynamic events) can be replayed —
// the SE solve re-run from the recorded inputs — and must reproduce the
// recorded selection and utility bit-identically (see replay.go).
// mvcom-soak and mvcom-cluster wire that as a CI gate, and
// cmd/mvcom-explain answers operator queries over journals offline.
//
// The package follows the repo's observer contracts: nil is off (a nil
// *Journal makes every method a no-op, so an unconfigured pipeline pays
// nothing), writes are bounded by size-based segment rotation, and the
// serve hot path stays cheap: Acquire hands out pooled entries and a
// background writer renders and persists them off the epoch loop, so
// journaling adds neither allocation pressure nor encode/write latency
// to the SE round loop.
package decisionlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"mvcom/internal/core"
	"mvcom/internal/obs"
	"mvcom/internal/seobs"
)

// SchemaVersion is stamped into every entry; readers reject entries
// from a newer schema instead of misinterpreting them.
const SchemaVersion = 1

// Solver fingerprint kinds.
const (
	// KindSE marks an in-process SE solve (core.SE.Solve / SolveFrom) —
	// replayable from the fingerprint alone.
	KindSE = "se"
	// KindDist marks a distributed session: per-task engine runs whose
	// max is the decision — replayable from the task records when the
	// adaptive schedule is off and no dynamic events fired.
	KindDist = "dist"
	// KindAcceptAll marks the no-scheduling baseline policy.
	KindAcceptAll = "accept-all"
	// KindOpaque marks a scheduler the journal cannot fingerprint (a
	// custom Scheduler implementation); recorded but never replayable.
	KindOpaque = "opaque"
)

// ShardRecord is one live committee's scheduling input, in instance
// index order (the entry's Selected/WarmPrev indices point into this
// slice).
type ShardRecord struct {
	// Committee is the stable committee identity across epochs.
	Committee int `json:"committee"`
	// Size is s_i, the shard's transaction count.
	Size int `json:"size"`
	// Latency is l_i, the two-phase latency in seconds.
	Latency float64 `json:"latency"`
	// Age is t_j − l_i under the entry's DDL.
	Age float64 `json:"age"`
	// Deferrals counts how many epochs this report has been carried.
	Deferrals int `json:"deferrals,omitempty"`
}

// SolverFingerprint pins the solver configuration an entry was decided
// under — everything Replay needs to rebuild the exact chain.
type SolverFingerprint struct {
	Kind              string  `json:"kind"`
	Seed              int64   `json:"seed,omitempty"`
	Beta              float64 `json:"beta,omitempty"`
	Tau               float64 `json:"tau,omitempty"`
	Gamma             int     `json:"gamma,omitempty"`
	Workers           int     `json:"workers,omitempty"`
	MaxIters          int     `json:"maxIters,omitempty"`
	ConvergenceWindow int     `json:"convergenceWindow,omitempty"`
	SwapRetries       int     `json:"swapRetries,omitempty"`
	InitRetries       int     `json:"initRetries,omitempty"`
	MaxCandidates     int     `json:"maxCandidates,omitempty"`
	MaxThreads        int     `json:"maxThreads,omitempty"`
	RawRates          bool    `json:"rawRates,omitempty"`
	WarmStart         bool    `json:"warmStart,omitempty"`
	Adaptive          bool    `json:"adaptive,omitempty"`
}

// FingerprintSE captures an SE solver's effective configuration (after
// defaulting — use core.SE.Config()).
func FingerprintSE(cfg core.SEConfig) SolverFingerprint {
	return SolverFingerprint{
		Kind:              KindSE,
		Seed:              cfg.Seed,
		Beta:              cfg.Beta,
		Tau:               cfg.Tau,
		Gamma:             cfg.Gamma,
		Workers:           cfg.Workers,
		MaxIters:          cfg.MaxIters,
		ConvergenceWindow: cfg.ConvergenceWindow,
		SwapRetries:       cfg.SwapRetries,
		InitRetries:       cfg.InitRetries,
		MaxCandidates:     cfg.MaxCandidates,
		MaxThreads:        cfg.MaxThreads,
		RawRates:          cfg.DisableRateNormalization,
		WarmStart:         cfg.WarmStart,
		Adaptive:          cfg.Adaptive,
	}
}

// SEConfig rebuilds the core configuration a fingerprint describes.
func (f SolverFingerprint) SEConfig() core.SEConfig {
	return core.SEConfig{
		Seed:                     f.Seed,
		Beta:                     f.Beta,
		Tau:                      f.Tau,
		Gamma:                    f.Gamma,
		Workers:                  f.Workers,
		MaxIters:                 f.MaxIters,
		ConvergenceWindow:        f.ConvergenceWindow,
		SwapRetries:              f.SwapRetries,
		InitRetries:              f.InitRetries,
		MaxCandidates:            f.MaxCandidates,
		MaxThreads:               f.MaxThreads,
		DisableRateNormalization: f.RawRates,
		WarmStart:                f.WarmStart,
		Adaptive:                 f.Adaptive,
	}
}

// DeferralEvent kinds.
const (
	// Deferred marks a refused shard carried to the next epoch.
	Deferred = "deferred"
	// Expired marks a refused shard dropped because its deferral count
	// exceeded MaxDeferrals.
	Expired = "expired"
)

// DeferralEvent records one refused committee's fate this epoch.
type DeferralEvent struct {
	Committee int    `json:"committee"`
	Kind      string `json:"kind"`
	// Deferrals is the count after this epoch's carry (the count the
	// expiry rule compared against MaxDeferrals).
	Deferrals int `json:"deferrals"`
	// MaxDeferrals attributes an expiry to the configured bound; zero on
	// "deferred" events.
	MaxDeferrals int `json:"maxDeferrals,omitempty"`
}

// TaskRecord is one distributed task's deterministic replay unit.
type TaskRecord struct {
	TaskID     string  `json:"taskId"`
	Seed       int64   `json:"seed"`
	Iterations int     `json:"iterations"`
	Utility    float64 `json:"utility"`
	// Selected is the task's best selection as instance indices; nil
	// when the task failed.
	Selected []int  `json:"selected,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Entry is one epoch's full decision record.
type Entry struct {
	Schema int `json:"schema"`
	Epoch  int `json:"epoch"`
	// TraceID is the epoch root span's trace, joining this entry to the
	// causal timeline (zero when tracing is off).
	TraceID uint64 `json:"traceId,omitempty"`

	// Instance inputs: DDL/Alpha/Capacity/Nmin plus the per-shard rows.
	DDL      float64       `json:"ddl"`
	Alpha    float64       `json:"alpha"`
	Capacity int           `json:"capacity"`
	Nmin     int           `json:"nmin"`
	Shards   []ShardRecord `json:"shards"`

	Solver SolverFingerprint `json:"solver"`
	// Warm marks an epoch whose solver warm-started via SolveFrom;
	// WarmPrev is the previous selection projected onto this epoch's
	// instance indices (the exact seed handed to the warm start).
	Warm     bool  `json:"warm,omitempty"`
	WarmPrev []int `json:"warmPrev,omitempty"`
	// NonReplayable, when non-empty, names why Replay must skip this
	// entry ("events", "adaptive-dist", "opaque", ...).
	NonReplayable string `json:"nonReplayable,omitempty"`

	// The decision: selected instance indices plus the solution terms.
	Selected   []int   `json:"selected"`
	Utility    float64 `json:"utility"`
	Load       int     `json:"load"`
	Count      int     `json:"count"`
	Iterations int     `json:"iterations,omitempty"`

	// Counterfactuals: per-committee marginal utilities of the selected
	// set and the top rejected candidates with their admission cost.
	Marginals []core.Marginal  `json:"marginals,omitempty"`
	Rejected  []core.Rejection `json:"rejected,omitempty"`

	// Deferrals records this epoch's carry/expiry outcomes.
	Deferrals []DeferralEvent `json:"deferrals,omitempty"`

	// Diag is the solve's scalar convergence digest (rounds-to-ε,
	// schedule stage, warm-start count).
	Diag *seobs.Digest `json:"diag,omitempty"`

	// Tasks holds the per-task records of a distributed decision.
	Tasks []TaskRecord `json:"tasks,omitempty"`

	// pooled marks entries owned by the journal's Acquire pool: they are
	// written asynchronously by the background writer and then recycled.
	// Caller-constructed entries (pooled false) are written before
	// Append returns, since the caller keeps ownership.
	pooled bool
}

// Instance rebuilds the scheduling instance the entry was decided on.
func (e *Entry) Instance() core.Instance {
	in := core.Instance{
		Sizes:     make([]int, len(e.Shards)),
		Latencies: make([]float64, len(e.Shards)),
		DDL:       e.DDL,
		Alpha:     e.Alpha,
		Capacity:  e.Capacity,
		Nmin:      e.Nmin,
	}
	for i, s := range e.Shards {
		in.Sizes[i] = s.Size
		in.Latencies[i] = s.Latency
	}
	return in
}

// selectionMask expands instance indices into a selection vector.
func selectionMask(indices []int, n int) []bool {
	mask := make([]bool, n)
	for _, i := range indices {
		if i >= 0 && i < n {
			mask[i] = true
		}
	}
	return mask
}

// reset truncates the entry's slices in place (capacity kept) and
// zeroes the scalars, readying it for reuse by the serve loop.
func (e *Entry) reset() {
	*e = Entry{
		Shards:    e.Shards[:0],
		Selected:  e.Selected[:0],
		WarmPrev:  e.WarmPrev[:0],
		Marginals: e.Marginals[:0],
		Rejected:  e.Rejected[:0],
		Deferrals: e.Deferrals[:0],
		Tasks:     e.Tasks[:0],
		pooled:    e.pooled,
	}
}

// Options configures a Journal.
type Options struct {
	// Dir is the journal directory; segments are named
	// decisions-NNNNNN.jsonl. Required.
	Dir string
	// MaxSegmentBytes rotates the active segment once it would exceed
	// this size. Default 4 MiB.
	MaxSegmentBytes int64
	// MaxSegments bounds the retained segment count; the oldest segment
	// is removed when rotation would exceed it. Default 8.
	MaxSegments int
	// RecentEntries bounds the in-memory ring served at
	// /debug/decisions. Default 32.
	RecentEntries int
	// Registry, when non-nil, receives the mvcom_decision_* instruments,
	// the "decisions" debug provider, and EvDecision trace events.
	Registry *obs.Registry
}

// Journal is an append-only, size-rotated epoch decision journal.
// Append is safe for concurrent use; an entry handed out by Acquire is
// owned by one goroutine at a time (the serve loop is single-goroutine,
// which is the intended user), and Sync/Close expect appends to have
// quiesced.
type Journal struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	maxSegs  int
	f        *os.File
	segIndex int
	segBytes int64
	line     []byte
	// wbuf batches rendered lines between flushes so steady-state
	// appends pay no per-entry write syscall; it drains to the active
	// segment when it exceeds wbufFlushBytes, on rotation, on Sync, and
	// on Close (a crash can lose at most one unflushed batch — Sync is
	// the durability point).
	wbuf   []byte
	detail []byte
	closed bool

	// Background writer state: pooled entries cycle Acquire → Append →
	// pending → writeEntry → free; werr is the sticky asynchronous
	// write error, surfaced by the next Append or Sync.
	free    chan *Entry
	pending chan writeMsg
	quit    chan struct{}
	wdone   chan struct{}
	werr    error

	totalBytes int64
	recent     []json.RawMessage
	recentNext int

	cEntries      *obs.Counter
	gBytes        *obs.Gauge
	cReplays      *obs.Counter
	cReplayFailed *obs.Counter
	tracer        *obs.Tracer
}

// segmentName formats one segment's file name.
func segmentName(i int) string { return fmt.Sprintf("decisions-%06d.jsonl", i) }

// segmentFiles lists a directory's journal segments in index order.
func segmentFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "decisions-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Open creates (or resumes) a journal in opts.Dir. A directory holding
// earlier segments is continued: the highest-numbered segment is
// appended to until it rotates.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("decisionlog: Options.Dir is required")
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 4 << 20
	}
	if opts.MaxSegments <= 0 {
		opts.MaxSegments = 8
	}
	if opts.RecentEntries <= 0 {
		opts.RecentEntries = 32
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	j := &Journal{
		dir:      opts.Dir,
		maxBytes: opts.MaxSegmentBytes,
		maxSegs:  opts.MaxSegments,
		recent:   make([]json.RawMessage, 0, opts.RecentEntries),
	}
	segs, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		fmt.Sscanf(filepath.Base(last), "decisions-%06d.jsonl", &j.segIndex)
		st, err := os.Stat(last)
		if err != nil {
			return nil, fmt.Errorf("decisionlog: %w", err)
		}
		j.segBytes = st.Size()
		for _, s := range segs {
			if st, err := os.Stat(s); err == nil {
				j.totalBytes += st.Size()
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(j.segIndex)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	j.f = f
	if reg := opts.Registry; reg != nil {
		j.cEntries = reg.Counter("mvcom_decision_entries_total", "epoch decision-journal entries appended")
		j.gBytes = reg.Gauge("mvcom_decision_bytes", "decision-journal bytes retained on disk across segments")
		j.cReplays = reg.Counter("mvcom_decision_replays_total", "decision-journal replay verifications executed")
		j.cReplayFailed = reg.Counter("mvcom_decision_replay_failures_total", "decision-journal replays that diverged from the recorded decision")
		j.tracer = reg.Tracer()
		reg.RegisterDebug("decisions", j.debugSnapshot)
	}
	j.gBytes.Set(float64(j.totalBytes))
	j.free = make(chan *Entry, entryPool)
	for i := 0; i < entryPool; i++ {
		j.free <- &Entry{pooled: true}
	}
	j.pending = make(chan writeMsg, entryPool)
	j.quit = make(chan struct{})
	j.wdone = make(chan struct{})
	go j.writer()
	return j, nil
}

// entryPool sizes the Acquire pool and the writer queue: the serve
// loop can run this many epochs ahead of the disk before an Append
// blocks.
const entryPool = 4

// Dir returns the journal directory ("" for nil).
func (j *Journal) Dir() string {
	if j == nil {
		return ""
	}
	return j.dir
}

// Acquire returns a pooled entry — slices truncated, scalars zeroed —
// for the serve loop to fill and hand back to Append, which recycles
// it once the background writer has persisted it. Returns nil on a nil
// journal (the caller's nil check is the single branch the disabled
// path pays).
func (j *Journal) Acquire() *Entry {
	if j == nil {
		return nil
	}
	select {
	case e := <-j.free:
		e.reset()
		return e
	default:
		// The pool ran dry (an error path dropped an acquired entry, or
		// the writer is several epochs behind); grow instead of blocking
		// the serve loop. The new entry rejoins the pool after writing.
		return &Entry{pooled: true}
	}
}

// Append journals one entry: schema-stamps it and hands it to the
// background writer, which renders the JSON line, appends it to the
// active segment (rotating by size first), pushes it onto the recent
// ring, updates the instruments, and emits an EvDecision trace event
// carrying the entry's TraceID.
//
// Entries that came from Acquire are queued and written asynchronously
// so the epoch serve loop never pays the encode or the write syscall;
// a write failure is sticky and surfaces on the next Append or Sync —
// still loud, one epoch late. Caller-constructed entries are written
// before Append returns (the caller keeps ownership), through the same
// ordered queue. Nil-safe (both receiver and entry).
func (j *Journal) Append(e *Entry) error {
	if j == nil || e == nil {
		return nil
	}
	e.Schema = SchemaVersion
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("decisionlog: journal closed")
	}
	werr := j.werr
	j.mu.Unlock()
	if werr != nil {
		return werr
	}
	if e.pooled {
		j.pending <- writeMsg{e: e}
		return nil
	}
	done := make(chan error, 1)
	j.pending <- writeMsg{e: e, done: done}
	return <-done
}

// writeMsg is one unit of writer work: an entry to journal (with an
// optional completion ack for synchronous appends) or, with a nil
// entry, a flush request.
type writeMsg struct {
	e    *Entry
	done chan error
}

// writer is the journal's background goroutine: it drains the pending
// queue in order, so journal entries land on disk in append order even
// when synchronous and asynchronous appends interleave.
func (j *Journal) writer() {
	defer close(j.wdone)
	for {
		select {
		case m := <-j.pending:
			j.handle(m)
		case <-j.quit:
			for {
				select {
				case m := <-j.pending:
					j.handle(m)
				default:
					return
				}
			}
		}
	}
}

func (j *Journal) handle(m writeMsg) {
	var err error
	if m.e != nil {
		err = j.writeEntry(m.e)
		if err != nil {
			j.mu.Lock()
			if j.werr == nil {
				j.werr = err
			}
			j.mu.Unlock()
		}
		if m.e.pooled {
			select {
			case j.free <- m.e:
			default:
			}
		}
	} else {
		j.mu.Lock()
		err = j.werr
		if err == nil && j.f != nil && !j.closed {
			if err = j.flushLocked(); err == nil {
				err = j.f.Sync()
			}
		}
		j.mu.Unlock()
	}
	if m.done != nil {
		m.done <- err
	}
}

// wbufFlushBytes drains the write batch to the segment file once it
// grows past this size.
const wbufFlushBytes = 64 << 10

// writeEntry renders and appends one entry under the journal lock.
func (j *Journal) writeEntry(e *Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("decisionlog: journal closed")
	}
	j.line = appendEntryJSON(j.line[:0], e)
	j.line = append(j.line, '\n')
	line := j.line
	if j.segBytes > 0 && j.segBytes+int64(len(line)) > j.maxBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	j.wbuf = append(j.wbuf, line...)
	if len(j.wbuf) > wbufFlushBytes {
		if err := j.flushLocked(); err != nil {
			return err
		}
	}
	j.segBytes += int64(len(line))
	j.totalBytes += int64(len(line))

	// Recycle the ring slot's backing array (debugSnapshot deep-copies
	// on read, so a served snapshot never aliases a live slot).
	if len(j.recent) < cap(j.recent) {
		j.recent = append(j.recent, append(json.RawMessage(nil), line...))
	} else {
		j.recent[j.recentNext] = append(j.recent[j.recentNext][:0], line...)
		j.recentNext = (j.recentNext + 1) % len(j.recent)
	}

	j.cEntries.Inc()
	j.gBytes.Set(float64(j.totalBytes))
	if j.tracer != nil {
		j.detail = append(j.detail[:0], "utility="...)
		j.detail = strconv.AppendFloat(j.detail, e.Utility, 'g', -1, 64)
		j.tracer.EmitSpan(obs.EvDecision, "epoch", float64(e.Epoch),
			string(j.detail), obs.SpanContext{TraceID: e.TraceID})
	}
	return nil
}

// flushLocked drains the write batch to the active segment.
func (j *Journal) flushLocked() error {
	if len(j.wbuf) == 0 {
		return nil
	}
	if _, err := j.f.Write(j.wbuf); err != nil {
		return fmt.Errorf("decisionlog: write entry: %w", err)
	}
	j.wbuf = j.wbuf[:0]
	return nil
}

// rotateLocked closes the active segment, opens the next, and removes
// the oldest segment when the retained count exceeds MaxSegments.
func (j *Journal) rotateLocked() error {
	if err := j.flushLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("decisionlog: rotate: %w", err)
	}
	j.segIndex++
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.segIndex)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("decisionlog: rotate: %w", err)
	}
	j.f = f
	j.segBytes = 0
	segs, err := segmentFiles(j.dir)
	if err != nil {
		return err
	}
	for len(segs) > j.maxSegs {
		if st, err := os.Stat(segs[0]); err == nil {
			j.totalBytes -= st.Size()
		}
		if err := os.Remove(segs[0]); err != nil {
			return fmt.Errorf("decisionlog: prune: %w", err)
		}
		segs = segs[1:]
	}
	return nil
}

// Sync waits for every queued entry to reach the file and flushes the
// active segment to disk; any asynchronous write error that accumulated
// since the last Sync is returned here. Nil-safe.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.mu.Unlock()
	done := make(chan error, 1)
	j.pending <- writeMsg{done: done}
	return <-done
}

// Close drains the writer queue, stops the background writer, and
// closes the active segment; a pending asynchronous write error is
// returned. Nil-safe; idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.mu.Unlock()
	close(j.quit)
	<-j.wdone
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.werr
	if ferr := j.flushLocked(); err == nil {
		err = ferr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplayVerified feeds the replay-verification instruments; the CLIs
// and CI gates call it so /metrics shows how many journal entries have
// been proven faithful. Nil-safe.
func (j *Journal) ReplayVerified(ok bool) {
	if j == nil {
		return
	}
	j.cReplays.Inc()
	if !ok {
		j.cReplayFailed.Inc()
	}
}

// debugSnapshot backs the /debug/decisions endpoint: journal totals
// plus the recent entries oldest-first.
func (j *Journal) debugSnapshot() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := struct {
		Entries  int64             `json:"entries"`
		Bytes    int64             `json:"bytes"`
		Segments int               `json:"segments"`
		Recent   []json.RawMessage `json:"recent"`
	}{
		Entries:  j.cEntries.Value(),
		Bytes:    j.totalBytes,
		Segments: j.segIndex + 1,
		Recent:   make([]json.RawMessage, 0, len(j.recent)),
	}
	// Deep-copy: the ring recycles slot backing arrays on append, and the
	// HTTP handler marshals the snapshot outside the journal lock.
	if len(j.recent) < cap(j.recent) {
		for _, raw := range j.recent {
			out.Recent = append(out.Recent, append(json.RawMessage(nil), raw...))
		}
	} else {
		for i := 0; i < len(j.recent); i++ {
			raw := j.recent[(j.recentNext+i)%len(j.recent)]
			out.Recent = append(out.Recent, append(json.RawMessage(nil), raw...))
		}
	}
	return out
}
