// Package decisionlog is the decision-provenance layer: an append-only,
// schema-versioned epoch audit journal recording *why* each epoch's
// committee set was selected — the full scheduling inputs, the solver
// configuration fingerprint, the selected set with per-committee
// marginal utilities, the top rejected candidates with the utility an
// admission would have cost elsewhere, deferral/expiry events with
// their MaxDeferrals attribution, and the solve's convergence digest.
//
// The journal exists to be *checked*, not just read: every entry whose
// solver fingerprint names a deterministic kind ("se" or "dist" with no
// dynamic events) can be replayed — the SE solve re-run from the
// recorded inputs — and must reproduce the recorded selection and
// utility bit-identically (see replay.go).
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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
	// max is the decision — replayable from the task records when no
	// dynamic events fired.
	KindDist = "dist"
	// KindAcceptAll marks the no-scheduling baseline policy.
	KindAcceptAll = "accept-all"
	// KindOpaque marks a scheduler the journal cannot fingerprint (a
	// custom Scheduler implementation); recorded but never replayable.
	KindOpaque = "opaque"
)

// ShardRecord is one live committee's scheduling input. An entry's
// Shards rows are in instance index order (its Selected/WarmPrev indices
// point into that slice); its Presolved rows are in report order.
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
	Gamma             int     `json:"gamma,omitempty"`
	MaxIters          int     `json:"maxIters,omitempty"`
	ConvergenceWindow int     `json:"convergenceWindow,omitempty"`
	SwapRetries       int     `json:"swapRetries,omitempty"`
	MaxThreads        int     `json:"maxThreads,omitempty"`
	RawRates          bool    `json:"rawRates,omitempty"`
	WarmStart         bool    `json:"warmStart,omitempty"`
	// Tau is read-only: journals from builds that had the SE constant τ
	// recorded a nonzero value here. The writer never emits it, and
	// Replay skips an entry that carries it.
	Tau float64 `json:"tau,omitempty"`
	// Adaptive is read-only: journals from builds that had the adaptive
	// β/Γ schedule set it on entries solved under that schedule. The
	// writer never emits it, and Replay skips an entry that carries it.
	Adaptive bool `json:"adaptive,omitempty"`
}

// FingerprintSE captures an SE solver's effective configuration (after
// defaulting — use core.SE.Config()).
func FingerprintSE(cfg core.SEConfig) SolverFingerprint {
	return SolverFingerprint{
		Kind:              KindSE,
		Seed:              cfg.Seed,
		Beta:              cfg.Beta,
		Gamma:             cfg.Gamma,
		MaxIters:          cfg.MaxIters,
		ConvergenceWindow: cfg.ConvergenceWindow,
		SwapRetries:       cfg.SwapRetries,
		MaxThreads:        cfg.MaxThreads,
		RawRates:          cfg.DisableRateNormalization,
		WarmStart:         cfg.WarmStart,
	}
}

// SEConfig rebuilds the core configuration a fingerprint describes.
func (f SolverFingerprint) SEConfig() core.SEConfig {
	return core.SEConfig{
		Seed:                     f.Seed,
		Beta:                     f.Beta,
		Gamma:                    f.Gamma,
		MaxIters:                 f.MaxIters,
		ConvergenceWindow:        f.ConvergenceWindow,
		SwapRetries:              f.SwapRetries,
		MaxThreads:               f.MaxThreads,
		DisableRateNormalization: f.RawRates,
		WarmStart:                f.WarmStart,
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

	// Instance inputs: DDL/Alpha/Capacity/Nmin plus the per-shard rows
	// of the instance the scheduler saw.
	DDL      float64       `json:"ddl"`
	Alpha    float64       `json:"alpha"`
	Capacity int           `json:"capacity"`
	Nmin     int           `json:"nmin"`
	Shards   []ShardRecord `json:"shards"`
	// Presolved holds the arrived shards of negative value that presolve
	// took out of the instance before the solve (DESIGN §5k). Verify
	// checks that the rule held for each; their deferral events are in
	// Deferrals like any refusal's.
	Presolved []ShardRecord `json:"presolved,omitempty"`

	Solver SolverFingerprint `json:"solver"`
	// Warm marks an epoch whose solver warm-started via SolveFrom;
	// WarmPrev is the previous selection projected onto this epoch's
	// instance indices (the exact seed handed to the warm start).
	Warm     bool  `json:"warm,omitempty"`
	WarmPrev []int `json:"warmPrev,omitempty"`
	// NonReplayable, when non-empty, names why Replay must skip this
	// entry ("events", "opaque", ...).
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
	// warm-start count).
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
func (e *Entry) Instance() core.Instance { return e.instanceOf(e.Shards) }

// FullInstance rebuilds the instance before presolve: the Shards rows
// followed by the Presolved rows, so Presolved[k] is instance index
// len(Shards)+k.
func (e *Entry) FullInstance() core.Instance {
	rows := append(append([]ShardRecord(nil), e.Shards...), e.Presolved...)
	return e.instanceOf(rows)
}

// instanceOf builds an instance over rows under the entry's parameters.
func (e *Entry) instanceOf(rows []ShardRecord) core.Instance {
	in := core.Instance{
		Sizes:     make([]int, len(rows)),
		Latencies: make([]float64, len(rows)),
		DDL:       e.DDL,
		Alpha:     e.Alpha,
		Capacity:  e.Capacity,
		Nmin:      e.Nmin,
	}
	for i, s := range rows {
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
		Presolved: e.Presolved[:0],
		Selected:  e.Selected[:0],
		WarmPrev:  e.WarmPrev[:0],
		Marginals: e.Marginals[:0],
		Rejected:  e.Rejected[:0],
		Deferrals: e.Deferrals[:0],
		Tasks:     e.Tasks[:0],
		pooled:    e.pooled,
	}
}

// Journal bounds.
const (
	// maxSegmentBytes rotates the active segment once it would exceed
	// this size.
	maxSegmentBytes = 4 << 20
	// maxSegments bounds the retained segment count; the oldest segment
	// is removed when rotation would exceed it.
	maxSegments = 8
	// recentEntries bounds the ring of line locations whose lines
	// /debug/decisions serves.
	recentEntries = 32
)

// Options configures a Journal.
type Options struct {
	// Dir is the journal directory; segments are named
	// decisions-NNNNNN.jsonl. Required.
	Dir string
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
	maxBytes int64 // maxSegmentBytes; the rotation test lowers it
	maxSegs  int   // maxSegments; the rotation test lowers it
	f        *os.File
	segIndex int
	segBytes int64
	// wbuf batches the lines of entries that queued up behind each other,
	// rendered straight into it, so a backlog pays one write syscall. It
	// drains to the active segment once the writer finds its queue empty,
	// when it exceeds wbufFlushBytes, on rotation, and before
	// /debug/decisions reads lines back, so a crash loses at most the
	// lines of a backlog still being written; Sync is the durability
	// point.
	wbuf   []byte
	detail []byte
	// closed and werr are atomics so that Append reads them without
	// taking mu, which the writer holds across a segment write: the
	// only place Append waits is the writer queue.
	closed atomic.Bool

	// Background writer state: pooled entries cycle Acquire → Append →
	// pending → writeEntry → free; werr is the sticky asynchronous
	// write error, surfaced by the next Append or Sync.
	free    chan *Entry
	pending chan writeMsg
	quit    chan struct{}
	wdone   chan struct{}
	werr    atomic.Pointer[error]

	totalBytes int64
	// recent locates the last recentEntries lines in the segments, a
	// ring whose oldest slot is recentNext once it is full. The lines
	// themselves are read back from the files when /debug/decisions is
	// served.
	recent     []lineAt
	recentNext int

	cEntries      *obs.Counter
	gBytes        *obs.Gauge
	cReplays      *obs.Counter
	cReplayFailed *obs.Counter
	hAppendWait   *obs.Histogram
	tracer        *obs.Tracer
}

// lineAt locates one journal line: segment index, byte offset in that
// segment, and length with the newline.
type lineAt struct {
	seg int
	off int64
	n   int
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

// RequireEmptyDir refuses a journal directory that already holds files,
// for a run whose journal must hold its own epochs only: Open would
// append to the earlier journal, and a replay gate would count that
// run's entries as this one's. A missing directory passes; Open creates
// it.
func RequireEmptyDir(dir string) error {
	names, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("decisionlog: %w", err)
	}
	if len(names) > 0 {
		return fmt.Errorf("decision journal directory %s is not empty: a new run would append to the earlier journal and its replay gate would count that run's epochs; remove it or choose another directory", dir)
	}
	return nil
}

// Open creates (or resumes) a journal in opts.Dir. A directory holding
// earlier segments is continued: the highest-numbered segment is
// appended to until it rotates, after truncateTornTail has cut a torn
// final line from it.
func Open(opts Options) (*Journal, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("decisionlog: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	j := &Journal{
		dir:      opts.Dir,
		maxBytes: maxSegmentBytes,
		maxSegs:  maxSegments,
		recent:   make([]lineAt, 0, recentEntries),
	}
	segs, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	torn := false
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		fmt.Sscanf(filepath.Base(last), "decisions-%06d.jsonl", &j.segIndex)
		if torn, err = truncateTornTail(last); err != nil {
			return nil, fmt.Errorf("decisionlog: %w", err)
		}
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
		j.hAppendWait = reg.Histogram("mvcom_decision_append_wait_seconds", "time Append blocked on a full writer queue, seconds", obs.ExponentialBuckets(1e-4, 2, 16))
		tornTails := reg.Counter("mvcom_decision_torn_tails_total", "torn final journal lines truncated away when a journal resumed")
		if torn {
			tornTails.Inc()
		}
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

// truncateTornTail cuts a segment whose final line is torn — it lacks
// its newline, or it does not decode — back to the end of the previous
// complete line, and reports whether it cut. A writer killed mid-append
// leaves such a line; appending after it would fuse the next entry onto
// it and leave both unreadable.
func truncateTornTail(path string) (bool, error) {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return false, err
	}
	keep := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1 // the final line's start
	if b[len(b)-1] == '\n' {
		var e Entry
		if json.Unmarshal(b[keep:], &e) == nil {
			return false, nil
		}
	}
	return true, os.Truncate(path, int64(keep))
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
// active segment (rotating by size first), records the line's location
// in the recent ring, updates the instruments, and emits an EvDecision
// trace event carrying the entry's TraceID.
//
// Entries that came from Acquire are queued and written asynchronously
// so the epoch serve loop never pays the encode or the write syscall;
// a write failure is sticky and surfaces on the next Append or Sync —
// still loud, one epoch late. Caller-constructed entries are written
// before Append returns (the caller keeps ownership), through the same
// ordered queue. Append blocks only while the queue is full, the
// writer entryPool entries behind; mvcom_decision_append_wait_seconds
// times each such wait. Nil-safe (both receiver and entry).
func (j *Journal) Append(e *Entry) error {
	if j == nil || e == nil {
		return nil
	}
	e.Schema = SchemaVersion
	if j.closed.Load() {
		return fmt.Errorf("decisionlog: journal closed")
	}
	if err := j.err(); err != nil {
		return err
	}
	if e.pooled {
		j.enqueue(writeMsg{e: e})
		return nil
	}
	done := make(chan error, 1)
	j.enqueue(writeMsg{e: e, done: done})
	return <-done
}

// enqueue hands m to the writer. Only a full queue makes it read the
// clock, to time the wait.
func (j *Journal) enqueue(m writeMsg) {
	select {
	case j.pending <- m:
		return
	default:
	}
	start := time.Now()
	j.pending <- m
	j.hAppendWait.Observe(time.Since(start).Seconds())
}

// err returns the sticky asynchronous write error, nil if none.
func (j *Journal) err() error {
	if p := j.werr.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the sticky write error unless one is already set.
func (j *Journal) fail(err error) { j.werr.CompareAndSwap(nil, &err) }

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
		if err == nil && len(j.pending) == 0 {
			// Nothing queued behind this entry: the batch leaves now, so
			// an idle writer holds no line back from the segment file.
			j.mu.Lock()
			err = j.flushLocked()
			j.mu.Unlock()
		}
		if err != nil {
			j.fail(err)
		}
		if m.e.pooled {
			select {
			case j.free <- m.e:
			default:
			}
		}
	} else {
		j.mu.Lock()
		err = j.err()
		if err == nil && j.f != nil && !j.closed.Load() {
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

// writeEntry renders one entry into the write batch under the journal
// lock, rotating first when its line would overflow the active segment.
func (j *Journal) writeEntry(e *Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed.Load() {
		return fmt.Errorf("decisionlog: journal closed")
	}
	start := len(j.wbuf)
	j.wbuf = append(appendEntryJSON(j.wbuf, e), '\n')
	n := len(j.wbuf) - start
	if j.segBytes > 0 && j.segBytes+int64(n) > j.maxBytes {
		// The batch before this line belongs to the active segment; the
		// line moves to the front of the emptied batch for the next one.
		line := j.wbuf[start:]
		j.wbuf = j.wbuf[:start]
		if err := j.rotateLocked(); err != nil {
			return err
		}
		j.wbuf = append(j.wbuf[:0], line...)
	}
	at := lineAt{seg: j.segIndex, off: j.segBytes, n: n}
	if len(j.wbuf) > wbufFlushBytes {
		if err := j.flushLocked(); err != nil {
			return err
		}
	}
	j.segBytes += int64(n)
	j.totalBytes += int64(n)

	if len(j.recent) < cap(j.recent) {
		j.recent = append(j.recent, at)
	} else {
		j.recent[j.recentNext] = at
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
// the oldest segment when the retained count exceeds maxSegs.
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
	if j.closed.Load() {
		return nil
	}
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
	if j.closed.Load() {
		return nil
	}
	close(j.quit)
	<-j.wdone
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed.Store(true)
	err := j.err()
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
// plus the recent entries oldest-first. It flushes the write batch and
// copies the ring's locations under the lock, then reads the lines
// from the segment files outside it: a flushed line never changes,
// because rotation only adds or removes whole files and only Open
// truncates. An entry whose segment was pruned in between, or before
// (32 entries span more than maxSegments segments only when lines
// exceed maxSegmentBytes/maxSegments), is left out.
func (j *Journal) debugSnapshot() any {
	j.mu.Lock()
	if !j.closed.Load() {
		if err := j.flushLocked(); err != nil {
			j.fail(err)
		}
	}
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
	locs := make([]lineAt, 0, len(j.recent))
	locs = append(append(locs, j.recent[j.recentNext:]...), j.recent[:j.recentNext]...)
	j.mu.Unlock()

	var f *os.File
	seg := -1
	for _, at := range locs {
		if at.seg != seg {
			if f != nil {
				f.Close()
			}
			seg = at.seg
			f, _ = os.Open(filepath.Join(j.dir, segmentName(seg))) // nil once pruned
		}
		if f == nil {
			continue
		}
		line := make(json.RawMessage, at.n)
		if _, err := f.ReadAt(line, at.off); err == nil {
			out.Recent = append(out.Recent, line)
		}
	}
	if f != nil {
		f.Close()
	}
	return out
}
