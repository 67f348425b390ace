package decisionlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/obs"
)

// testInstance is a small deterministic scheduling instance with one
// straggler and a tight-enough capacity that the solver must choose.
func testInstance() core.Instance {
	return core.Instance{
		Sizes:     []int{120, 100, 80, 60, 40, 500},
		Latencies: []float64{5, 10, 15, 20, 25, 90},
		DDL:       50,
		Alpha:     1,
		Capacity:  260,
		Nmin:      2,
	}
}

// solveEntry runs a fresh SE solve over testInstance and records it as
// a journal entry the way the pipeline does.
func solveEntry(t testing.TB, epoch int, seed int64) Entry {
	t.Helper()
	return solveEntryOf(t, testInstance(), epoch, seed)
}

// solveEntryOf is solveEntry over the instance in.
func solveEntryOf(t testing.TB, in core.Instance, epoch int, seed int64) Entry {
	t.Helper()
	se := core.NewSE(core.SEConfig{Seed: seed, MaxIters: 2000})
	sol, _, err := se.Solve(in)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	e := Entry{
		Epoch:    epoch,
		DDL:      in.DDL,
		Alpha:    in.Alpha,
		Capacity: in.Capacity,
		Nmin:     in.Nmin,
		Solver:   FingerprintSE(se.Config()),
		Selected: sol.Indices(),
		Utility:  sol.Utility,
		Load:     sol.Load,
		Count:    sol.Count,
	}
	for i := range in.Sizes {
		e.Shards = append(e.Shards, ShardRecord{
			Committee: i, Size: in.Sizes[i], Latency: in.Latencies[i], Age: in.Age(i),
		})
	}
	e.Marginals = core.MarginalsInto(nil, &in, sol)
	e.Rejected = core.RejectedCounterfactualsInto(nil, &in, sol, 3)
	return e
}

func TestFingerprintRoundTrip(t *testing.T) {
	cfg := core.NewSE(core.SEConfig{Seed: 7, Beta: 3, Gamma: 2}).Config()
	got := FingerprintSE(cfg).SEConfig()
	if got != cfg {
		t.Fatalf("fingerprint round-trip changed config:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestReplaySEBitIdentical(t *testing.T) {
	e := solveEntry(t, 1, 42)
	sol, err := Replay(&e)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if sol.Utility != e.Utility {
		t.Fatalf("replay utility %v != recorded %v", sol.Utility, e.Utility)
	}
	if err := Verify(&e); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestReplaySEWarmStart(t *testing.T) {
	in := testInstance()
	se := core.NewSE(core.SEConfig{Seed: 9, MaxIters: 2000, WarmStart: true})
	prevSel := []int{0, 1}
	prev := core.Solution{Selected: selectionMask(prevSel, len(in.Sizes))}
	sol, _, err := se.SolveFrom(in, prev)
	if err != nil {
		t.Fatalf("solve from: %v", err)
	}
	e := Entry{
		Epoch: 2, DDL: in.DDL, Alpha: in.Alpha, Capacity: in.Capacity, Nmin: in.Nmin,
		Solver: FingerprintSE(se.Config()),
		Warm:   true, WarmPrev: prevSel,
		Selected: sol.Indices(), Utility: sol.Utility, Load: sol.Load, Count: sol.Count,
	}
	for i := range in.Sizes {
		e.Shards = append(e.Shards, ShardRecord{Committee: i, Size: in.Sizes[i], Latency: in.Latencies[i]})
	}
	if err := Verify(&e); err != nil {
		t.Fatalf("warm-start verify: %v", err)
	}
}

// distEntry records a three-task distributed decision over testInstance
// the way mvcom-dist does: each task an engine stepped 500 rounds under
// its own seed, the decision the best task.
func distEntry(t testing.TB) Entry {
	t.Helper()
	in := testInstance()
	cfg := core.SEConfig{Beta: 2, Gamma: 1}
	var tasks []TaskRecord
	var bestU float64
	var bestSel []int
	var bestLoad, bestCount int
	for g := 0; g < 3; g++ {
		seed := int64(11 + g*7919)
		eng, err := core.NewEngine(in, core.SEConfig{
			Beta: cfg.Beta, Gamma: cfg.Gamma, Seed: seed,
		})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		eng.StepN(500)
		sol, err := eng.Best()
		if err != nil {
			t.Fatalf("best: %v", err)
		}
		tasks = append(tasks, TaskRecord{
			TaskID: "task", Seed: seed, Iterations: eng.Iterations(),
			Utility: sol.Utility, Selected: sol.Indices(),
		})
		if bestSel == nil || sol.Utility > bestU {
			bestU, bestSel, bestLoad, bestCount = sol.Utility, sol.Indices(), sol.Load, sol.Count
		}
	}
	fp := FingerprintSE(cfg)
	fp.Kind = KindDist
	e := Entry{
		Epoch: 3, DDL: in.DDL, Alpha: in.Alpha, Capacity: in.Capacity, Nmin: in.Nmin,
		Solver: fp, Tasks: tasks,
		Selected: bestSel, Utility: bestU, Load: bestLoad, Count: bestCount,
	}
	for i := range in.Sizes {
		e.Shards = append(e.Shards, ShardRecord{Committee: i, Size: in.Sizes[i], Latency: in.Latencies[i]})
	}
	return e
}

func TestReplayDistBitIdentical(t *testing.T) {
	e := distEntry(t)
	if err := Verify(&e); err != nil {
		t.Fatalf("dist verify: %v", err)
	}

	// A tampered task record must be caught.
	e.Tasks[0].Utility += 1
	if err := Verify(&e); err == nil {
		t.Fatal("tampered dist entry verified")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	e := solveEntry(t, 4, 5)
	e.Utility += 0.5
	if err := Verify(&e); err == nil {
		t.Fatal("tampered utility verified")
	}
	e = solveEntry(t, 4, 5)
	if len(e.Selected) > 0 {
		e.Selected = e.Selected[1:]
		if err := Verify(&e); err == nil {
			t.Fatal("tampered selection verified")
		}
	}
}

// TestVerifyChecksPresolve: Verify replays an entry whose presolved
// rows obey the rule, and fails one whose presolved row broke it — a
// value of zero or more, a straggler, Nmin 2 — even when the entry's
// kind cannot be replayed.
func TestVerifyChecksPresolve(t *testing.T) {
	in := testInstance()
	// Arrived volume 400 is over capacity 260, and shard 0 (value 75)
	// fits; the presolved row's value is 10 − 50 = −40.
	in.Nmin = 1
	negative := ShardRecord{Committee: 9, Size: 10, Latency: 0, Age: 50}
	e := solveEntryOf(t, in, 3, 5)
	e.Presolved = []ShardRecord{negative}
	if err := Verify(&e); err != nil {
		t.Fatalf("valid presolve: %v", err)
	}

	for _, tc := range []struct {
		name string
		edit func(*Entry)
	}{
		{"non-negative", func(e *Entry) {
			e.Presolved = append(e.Presolved, ShardRecord{Committee: 8, Size: 60, Latency: 10, Age: 40}) // value 20
		}},
		{"zero value", func(e *Entry) {
			e.Presolved = append(e.Presolved, ShardRecord{Committee: 8, Size: 50, Latency: 0, Age: 50}) // value 0
		}},
		{"straggler", func(e *Entry) {
			e.Presolved = append(e.Presolved, ShardRecord{Committee: 8, Size: 1, Latency: 60, Age: -10})
		}},
		{"nmin 2", func(e *Entry) { e.Nmin = 2 }},
		{"below the block", func(e *Entry) { e.Capacity = 1000 }},
		{"accept-all", func(e *Entry) {
			e.Solver = SolverFingerprint{Kind: KindAcceptAll}
			e.Presolved[0].Latency = 45 // value 5
		}},
	} {
		bad := solveEntryOf(t, in, 3, 5)
		bad.Presolved = []ShardRecord{negative}
		tc.edit(&bad)
		err := Verify(&bad)
		if err == nil || errors.Is(err, ErrNotReplayable) || !strings.Contains(err.Error(), "presolved") {
			t.Fatalf("%s: Verify = %v, want a presolve failure", tc.name, err)
		}
	}
}

func TestNonReplayableKinds(t *testing.T) {
	for _, e := range []Entry{
		{Solver: SolverFingerprint{Kind: KindAcceptAll}},
		{Solver: SolverFingerprint{Kind: KindOpaque}},
		{Solver: SolverFingerprint{Kind: KindSE}, NonReplayable: "events"},
		{Solver: SolverFingerprint{Kind: KindDist}},
	} {
		if _, err := Replay(&e); !errors.Is(err, ErrNotReplayable) {
			t.Fatalf("kind %q nonReplayable %q: err = %v, want ErrNotReplayable",
				e.Solver.Kind, e.NonReplayable, err)
		}
	}
	st := VerifyAll([]Entry{{Solver: SolverFingerprint{Kind: KindOpaque}}})
	if st.Skipped != 1 || st.Failed != 0 || st.Replayed != 0 {
		t.Fatalf("VerifyAll stats = %+v, want 1 skipped", st)
	}

	// Builds with the adaptive β/Γ schedule closed the solver object of
	// an entry solved under it with "adaptive":true, and builds with the
	// SE constant τ wrote a nonzero one as "tau". Such lines must still
	// decode and be skipped; without the key the same lines replay.
	adaptive := func(f SolverFingerprint) bool { return f.Adaptive }
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		key     string
		decoded func(SolverFingerprint) bool
		entry   Entry
	}{
		{"se", `"adaptive":true`, adaptive, solveEntry(t, 7, 42)},
		{"dist", `"adaptive":true`, adaptive, distEntry(t)},
		{"se-tau", `"tau":0.5`, func(f SolverFingerprint) bool { return f.Tau == 0.5 }, solveEntry(t, 7, 42)},
	} {
		line := string(appendEntryJSON(nil, &tc.entry))
		solver := strings.Index(line, `"solver":{`)
		end := solver + strings.IndexByte(line[solver:], '}')
		old := line[:end] + "," + tc.key + line[end:]
		path := filepath.Join(dir, tc.name+".jsonl")
		if err := os.WriteFile(path, []byte(old+"\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		entries, _, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.decoded(entries[0].Solver) || tc.decoded(entries[1].Solver) {
			t.Fatalf("%s: %s decoded as %+v / %+v", tc.name, tc.key, entries[0].Solver, entries[1].Solver)
		}
		if _, err := Replay(&entries[0]); !errors.Is(err, ErrNotReplayable) {
			t.Fatalf("%s: entry with %s: err = %v, want ErrNotReplayable", tc.name, tc.key, err)
		}
		if err := Verify(&entries[1]); err != nil {
			t.Fatalf("%s: entry without the key: %v", tc.name, err)
		}
	}
}

// TestWorkersKeyIgnored: builds that configured the SE worker count
// wrote it into the solver object as "workers". The count never changed
// a result, so such lines still decode and verify.
func TestWorkersKeyIgnored(t *testing.T) {
	for _, e := range []Entry{solveEntry(t, 7, 42), distEntry(t)} {
		line := string(appendEntryJSON(nil, &e))
		at := strings.Index(line, `"solver":{`) + len(`"solver":{`)
		var old Entry
		if err := json.Unmarshal([]byte(line[:at]+`"workers":4,`+line[at:]), &old); err != nil {
			t.Fatalf("%s: %v", e.Solver.Kind, err)
		}
		if err := Verify(&old); err != nil {
			t.Fatalf("%s entry with \"workers\": %v", e.Solver.Kind, err)
		}
	}
}

// replayWithin runs Replay on its own goroutine and fails the test if it
// has not returned after d, so an unbounded replay fails instead of
// hanging the package.
func replayWithin(t *testing.T, e *Entry, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := Replay(e)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("replay still running after %v", d)
		return nil
	}
}

// TestReplayBudget pins the caps on the work an entry can ask Replay
// for: rounds × Γ past maxReplayExplorerRounds, in one se solve or summed
// over dist tasks, Γ past maxReplayGamma, swapRetries past
// maxReplaySwapRetries, and explorer state past maxReplayStateCells are
// skipped before any explorer exists.
func TestReplayBudget(t *testing.T) {
	se := solveEntry(t, 1, 42)
	se.Solver.MaxIters = 1 << 40
	se.Solver.ConvergenceWindow = 1 << 40

	dist := distEntry(t)
	dist.Tasks[1].Iterations = 1 << 40

	// A first task inside the cap must not let a second one's huge count
	// wrap the sum back below it.
	wrap := distEntry(t)
	wrap.Tasks[1].Iterations = math.MaxInt

	// Few rounds but too many explorers: cheap to replay, so only the Γ
	// cap skips it.
	wide := solveEntry(t, 2, 42)
	wide.Solver.Gamma = maxReplayGamma + 1
	wide.Solver.MaxIters = 10

	for _, tc := range []struct {
		name  string
		entry *Entry
	}{
		{"rounds", &se}, {"dist-rounds", &dist}, {"dist-rounds-wrap", &wrap}, {"gamma", &wide},
		{"swap-retries", infeasibleSwapEntry()}, {"state", wideStateEntry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := replayWithin(t, tc.entry, time.Second); !errors.Is(err, ErrNotReplayable) {
				t.Fatalf("err = %v, want ErrNotReplayable", err)
			}
		})
	}
}

// infeasibleSwapEntry is a 10-round solve at swapRetries 2^40 over an
// instance whose every Set-timer proposal breaks capacity: only the
// one-shard thread can hold a feasible selection, the 1-tx shard, and
// swapping any 100-tx shard in for it overflows. Replaying it would
// resample 2^40 times per round.
func infeasibleSwapEntry() *Entry {
	cfg := core.NewSE(core.SEConfig{Seed: 1, MaxIters: 10, SwapRetries: 1 << 40}).Config()
	e := &Entry{Epoch: 1, DDL: 10, Alpha: 1, Capacity: 1, Nmin: 1, Solver: FingerprintSE(cfg)}
	for i, size := range []int{1, 100, 100, 100} {
		e.Shards = append(e.Shards, ShardRecord{Committee: i, Size: size, Latency: 1})
	}
	return e
}

// wideStateEntry is a one-round solve at Γ 40 over 2 000 shards: cheap in
// rounds, but its explorers would hold 40 × 64 × 2 000 cells of thread
// state before the first round.
func wideStateEntry() *Entry {
	cfg := core.NewSE(core.SEConfig{Seed: 1, Gamma: 40, MaxIters: 1}).Config()
	e := &Entry{Epoch: 1, DDL: 100, Alpha: 1, Nmin: 1, Solver: FingerprintSE(cfg)}
	for i := 0; i < 2000; i++ {
		size := 1 + i%97
		e.Shards = append(e.Shards, ShardRecord{Committee: i, Size: size, Latency: float64(i % 50)})
		e.Capacity += size
	}
	e.Capacity /= 2
	return e
}

func TestNewerSchemaRejected(t *testing.T) {
	e := solveEntry(t, 5, 1)
	e.Schema = SchemaVersion + 1
	if _, err := Replay(&e); err == nil {
		t.Fatal("newer-schema entry replayed")
	}
}

func TestJournalRoundTripAndVerifyDir(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e := solveEntry(t, i, int64(100+i))
		if err := j.Append(&e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("read %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Schema != SchemaVersion || e.Epoch != i {
			t.Fatalf("entry %d: schema %d epoch %d", i, e.Schema, e.Epoch)
		}
	}
	st, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 5 || st.Replayed != 5 || !st.Ok() {
		t.Fatalf("VerifyDir stats = %+v, want 5/5 replayed", st)
	}
}

func TestJournalRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j.maxBytes, j.maxSegs = 512, 2
	e := solveEntry(t, 0, 3)
	for i := 0; i < 40; i++ {
		e.Epoch = i
		if err := j.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("retained %d segments, want <= 2: %v", len(segs), segs)
	}
	// Pruned history must still read cleanly and verify.
	if st, err := VerifyDir(dir); err != nil || !st.Ok() {
		t.Fatalf("pruned journal verify: %+v err=%v", st, err)
	}
}

func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e := solveEntry(t, 0, 8)
	if err := j.Append(&e); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.Epoch = 1
	if err := j2.Append(&e); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	entries, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Epoch != 0 || entries[1].Epoch != 1 {
		t.Fatalf("resumed journal entries: %+v", entries)
	}
	segs, _ := segmentFiles(dir)
	if len(segs) != 1 {
		t.Fatalf("resume opened a new segment: %v", segs)
	}
}

// TestJournalTornTail cuts the last 40 bytes off a 5-entry journal, as a
// writer killed mid-append leaves it. Readers skip and report the torn
// line instead of failing on it, and a resumed journal truncates it, so
// the next append starts on a line boundary. A final line that has its
// newline but does not decode fails readers and is truncated the same
// way.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e := solveEntry(t, i, int64(100+i))
		if err := j.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-40); err != nil {
		t.Fatal(err)
	}
	if v, err := VerifyDir(dir); err != nil || v.Entries != 4 || !v.TornTail || !v.Ok() {
		t.Fatalf("cut journal: stats %+v, err %v; want 4 entries verified and a torn tail", v, err)
	}

	// resume reopens the journal, appends epoch's entry and checks that
	// Open truncated one torn line and that all epoch+1 entries verify.
	resume := func(epoch int) {
		t.Helper()
		reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
		j, err := Open(Options{Dir: dir, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		e := solveEntry(t, epoch, int64(100+epoch))
		if err := j.Append(&e); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("mvcom_decision_torn_tails_total", "").Value(); got != 1 {
			t.Fatalf("torn-tail counter = %d, want 1", got)
		}
		v, err := VerifyDir(dir)
		if err != nil || v.Entries != epoch+1 || v.TornTail || !v.Ok() {
			t.Fatalf("resumed journal: stats %+v, err %v; want %d entries verified", v, err, epoch+1)
		}
	}
	resume(4)

	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"schema\":1,\"epoch\":\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := VerifyDir(dir); err == nil || !strings.Contains(err.Error(), ":6:") {
		t.Fatalf("undecodable final line: err = %v, want a line-6 decode failure", err)
	}
	resume(5)
}

// TestRequireEmptyDir: a missing or empty directory passes; one that
// holds a journal is refused with an error naming it.
func TestRequireEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if err := RequireEmptyDir(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("missing directory refused: %v", err)
	}
	if err := RequireEmptyDir(dir); err != nil {
		t.Fatalf("empty directory refused: %v", err)
	}
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := RequireEmptyDir(dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("used directory: err = %v, want a refusal naming %s", err, dir)
	}
}

func TestNilJournalIsOff(t *testing.T) {
	var j *Journal
	if e := j.Acquire(); e != nil {
		t.Fatal("nil journal Acquire returned an entry")
	}
	if err := j.Append(&Entry{}); err != nil {
		t.Fatalf("nil journal Append: %v", err)
	}
	j.ReplayVerified(false)
	if err := j.Sync(); err != nil {
		t.Fatalf("nil journal Sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("nil journal Close: %v", err)
	}
	if d := j.Dir(); d != "" {
		t.Fatalf("nil journal Dir = %q", d)
	}
}

func TestJournalInstrumentsAndDebug(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	j.recent = make([]lineAt, 0, 2)
	defer j.Close()
	for i := 0; i < 3; i++ {
		e := solveEntry(t, i, int64(i))
		e.TraceID = 77
		if err := j.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	j.ReplayVerified(true)
	j.ReplayVerified(false)

	if got := reg.Counter("mvcom_decision_entries_total", "").Value(); got != 3 {
		t.Fatalf("entries counter = %d, want 3", got)
	}
	if got := reg.Gauge("mvcom_decision_bytes", "").Value(); got <= 0 {
		t.Fatalf("bytes gauge = %v, want > 0", got)
	}
	if got := reg.Counter("mvcom_decision_replays_total", "").Value(); got != 2 {
		t.Fatalf("replays counter = %d, want 2", got)
	}
	if got := reg.Counter("mvcom_decision_replay_failures_total", "").Value(); got != 1 {
		t.Fatalf("failures counter = %d, want 1", got)
	}

	fn := reg.DebugProvider("decisions")
	if fn == nil {
		t.Fatal("no decisions debug provider")
	}
	b, err := json.Marshal(fn())
	if err != nil {
		t.Fatalf("debug snapshot marshal: %v", err)
	}
	var snap struct {
		Entries int               `json:"entries"`
		Recent  []json.RawMessage `json:"recent"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Entries != 3 || len(snap.Recent) != 2 {
		t.Fatalf("debug snapshot entries=%d recent=%d, want 3 and 2 (ring bound)", snap.Entries, len(snap.Recent))
	}
	// Ring serves oldest-first: with bound 2 after 3 appends, epochs 1,2.
	var last Entry
	if err := json.Unmarshal(snap.Recent[len(snap.Recent)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Epoch != 2 {
		t.Fatalf("debug ring newest epoch = %d, want 2", last.Epoch)
	}

	// The EvDecision trace event carries the entry's TraceID.
	events, _ := reg.Tracer().Snapshot()
	found := false
	for _, ev := range events {
		if ev.Type == obs.EvDecision && ev.TraceID == 77 {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvDecision event with the entry's TraceID")
	}
}

// bigEntry is an entry whose JSON line is about 20 KB, the size of a
// solve-capacity decision; its 260 shard rows stand in for that
// decision's rows, marginals, deferrals and counterfactuals.
func bigEntry() Entry {
	e := Entry{DDL: 54.5, Alpha: 1.5, Capacity: 12000, Nmin: 1, Solver: SolverFingerprint{Kind: KindSE, Seed: 1}}
	for i := 0; i < 260; i++ {
		e.Shards = append(e.Shards, ShardRecord{
			Committee: i % 64, Size: 300 + i, Latency: 40 + float64(i)/7, Age: 14.5 - float64(i)/7,
		})
	}
	return e
}

// appendPooled journals tmpl's scalars and shard rows at epoch through
// Acquire and Append, as the serve loop does.
func appendPooled(j *Journal, tmpl *Entry, epoch int) error {
	e := j.Acquire()
	e.Epoch, e.DDL, e.Alpha, e.Capacity, e.Nmin, e.Solver = epoch, tmpl.DDL, tmpl.Alpha, tmpl.Capacity, tmpl.Nmin, tmpl.Solver
	e.Shards = append(e.Shards, tmpl.Shards...)
	return j.Append(e)
}

// TestJournalHoldsNoLineCopies bounds the heap an open journal retains
// after 100 appends of a 20 KB entry: the write batch and the pooled
// entries, but no copy of the recent lines, which /debug/decisions reads
// back from the segments.
func TestJournalHoldsNoLineCopies(t *testing.T) {
	tmpl := bigEntry()
	if n := len(appendEntryJSON(nil, &tmpl)); n < 19<<10 {
		t.Fatalf("the test entry renders %d bytes, want about 20 KB", n)
	}
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := appendPooled(j, &tmpl, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if held > 256<<10 {
		t.Fatalf("an open journal retains %d KiB after 100 appends of a 20 KB entry, want at most 256 KiB", held>>10)
	}
}

// TestJournalFlushesWhenIdle appends one entry and never syncs: once the
// writer finds its queue empty it writes the batch out, so the segment
// file holds the line and a kill would lose nothing.
func TestJournalFlushesWhenIdle(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tmpl := solveEntry(t, 3, 5)
	if err := appendPooled(j, &tmpl, 3); err != nil {
		t.Fatal(err)
	}
	want := append(appendEntryJSON(nil, &Entry{
		Schema: SchemaVersion, Epoch: 3, DDL: tmpl.DDL, Alpha: tmpl.Alpha, Capacity: tmpl.Capacity,
		Nmin: tmpl.Nmin, Shards: tmpl.Shards, Solver: tmpl.Solver,
	}), '\n')
	path := filepath.Join(dir, segmentName(0))
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("5 s after one Append the segment holds %d bytes, want its %d-byte line:\n%s", len(got), len(want), got)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalDebugReadsSegments checks /debug/decisions against the
// segment files: it serves exactly their last lines, oldest first, with
// lines still in the write batch, across rotations, once the location
// ring has wrapped, and with the entries of a pruned segment left out.
func TestJournalDebugReadsSegments(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e := solveEntry(t, 10, 5)
	// Epochs 10–99 render lines of one length; two fit a segment.
	n := len(appendEntryJSON(nil, &e)) + 1
	j.mu.Lock()
	j.maxBytes, j.maxSegs = int64(5*n/2), 3
	j.recent = make([]lineAt, 0, 5)
	j.mu.Unlock()
	epoch := 10
	appendN := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			e.Epoch = epoch
			epoch++
			if err := j.Append(&e); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string, want int) {
		t.Helper()
		b, err := json.Marshal(reg.DebugProvider("decisions")())
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Entries int               `json:"entries"`
			Recent  []json.RawMessage `json:"recent"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		segs, err := segmentFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		var lines [][]byte
		for _, seg := range segs {
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			for len(raw) > 0 {
				k := bytes.IndexByte(raw, '\n') + 1
				lines, raw = append(lines, raw[:k-1]), raw[k:]
			}
		}
		if snap.Entries != epoch-10 || len(snap.Recent) != want || len(lines) < want {
			t.Fatalf("%s: %d entries, %d recent, %d lines on disk; want %d entries and %d recent",
				stage, snap.Entries, len(snap.Recent), len(lines), epoch-10, want)
		}
		for i, got := range snap.Recent {
			if line := lines[len(lines)-want+i]; !bytes.Equal(got, line) {
				t.Fatalf("%s: recent[%d] = %.60s..., want the segment line %.60s...", stage, i, got, line)
			}
		}
	}

	// The writer writes its batch out once its queue is empty. Rendering
	// the first line as the writer does, but outside its loop, leaves
	// the line in the batch.
	e.Epoch = epoch
	epoch++
	if err := j.writeEntry(&e); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, segmentName(0))); err != nil || st.Size() != 0 {
		t.Fatalf("the first line left the write batch early: %v, %v", st, err)
	}
	check("one unflushed line", 1)
	appendN(2) // segment 1 opens
	check("across a rotation", 3)
	appendN(4) // 7 entries wrap the ring of 5; segment 0 is pruned
	check("after the ring wrapped", 5)
	j.mu.Lock()
	j.maxSegs = 2
	j.mu.Unlock()
	appendN(2) // segments 3 and 4 remain: epochs 16–18 of the ring's 14–18
	check("with a pruned segment", 3)
}

// TestJournalDebugDuringAppends serves /debug/decisions while the
// writer appends, rotates and prunes small segments: every line read
// back outside the journal lock decodes, and epochs run oldest first.
func TestJournalDebugDuringAppends(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	j, err := Open(Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.mu.Lock()
	j.maxBytes, j.maxSegs = 4096, 3
	j.mu.Unlock()
	tmpl := solveEntry(t, 0, 9)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := appendPooled(j, &tmpl, i); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	debug := reg.DebugProvider("decisions")
	for served := false; !served; {
		select {
		case <-done:
			served = true
		default:
		}
		b, err := json.Marshal(debug())
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Recent []json.RawMessage `json:"recent"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		prev := -1
		for _, raw := range snap.Recent {
			var e Entry
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("a served line does not decode: %v", err)
			}
			if e.Epoch <= prev {
				t.Fatalf("served epochs out of order: %d after %d", e.Epoch, prev)
			}
			prev = e.Epoch
		}
	}
}

// TestJournalAppendWaitRecorded stalls the writer on a pipe nobody
// reads yet: the write of its first full batch exceeds the pipe's
// buffer and blocks, entryPool entries fill the queue behind it, and
// the next Append waits until the pipe drains.
// mvcom_decision_append_wait_seconds records that wait.
func TestJournalAppendWaitRecorded(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	j, err := Open(Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j.mu.Lock()
	j.f.Close()
	j.f = w
	j.mu.Unlock()

	tmpl := bigEntry()
	appended := make(chan error, 1)
	go func() {
		for i := 0; i < 12; i++ {
			if err := appendPooled(j, &tmpl, i); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	const stall = 100 * time.Millisecond
	time.Sleep(stall)
	drained := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, r)
		drained <- err
	}()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	wait := reg.Histogram("mvcom_decision_append_wait_seconds", "", nil)
	if wait.Count() < 1 || wait.Sum() < (stall/2).Seconds() {
		t.Fatalf("append waits: %d recorded, %.3f s in all; want the stalled writer's wait of about %v",
			wait.Count(), wait.Sum(), stall)
	}
}

func TestAcquireRecyclesPooledEntries(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Cycle more entries through Acquire/Append than the pool holds; the
	// writer must recycle them, and each Acquire must hand back a reset
	// entry even when a recycled one still carries old state.
	for i := 0; i < 10; i++ {
		e := j.Acquire()
		if e.Epoch != 0 || len(e.Shards) != 0 || len(e.Selected) != 0 {
			t.Fatalf("cycle %d: Acquire returned a dirty entry: %+v", i, e)
		}
		e.Epoch = i
		e.Shards = append(e.Shards, ShardRecord{Committee: 1})
		e.Selected = append(e.Selected, 0)
		if err := j.Append(e); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	// After a Sync barrier every pooled entry is back in the free list,
	// so a fresh Acquire sees recycled slice capacity, not a new alloc.
	reused := false
	for i := 0; i < 10; i++ {
		if e := j.Acquire(); cap(e.Shards) > 0 {
			reused = true
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reused {
		t.Fatal("Acquire never returned a recycled entry with retained capacity")
	}

	entries, _, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("journal holds %d entries, want >= 10", len(entries))
	}
	for i := 0; i < 10; i++ {
		if entries[i].Epoch != i {
			t.Fatalf("entry %d journaled out of order: epoch %d", i, entries[i].Epoch)
		}
	}
}

func TestReadFileErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "decisions-000000.jsonl")
	if err := os.WriteFile(bad, []byte("{\"schema\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("corrupt line error = %v, want line-2 decode failure", err)
	}
	if _, _, err := ReadFile(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}
