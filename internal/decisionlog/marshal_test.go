package decisionlog

import (
	"bytes"
	"encoding/json"
	"testing"

	"mvcom/internal/core"
	"mvcom/internal/seobs"
)

// marshalCases spans the encoder's branch space: zero values vs set
// omitempty fields, nil vs empty vs populated slices, warm serve-mode
// entries, distributed entries with failed tasks, strings needing JSON
// and HTML escaping, and floats that force the 'e' format.
func marshalCases() []Entry {
	return []Entry{
		{}, // zero entry: nil Shards/Selected render as null
		{
			Schema: SchemaVersion, Epoch: 1,
			Shards:   []ShardRecord{},
			Selected: []int{},
			Solver:   SolverFingerprint{Kind: KindAcceptAll},
		},
		{
			Schema: SchemaVersion, Epoch: 42, TraceID: 1234567890123,
			DDL: 2017.5, Alpha: 1.5, Capacity: 28410, Nmin: 3,
			Shards: []ShardRecord{
				{Committee: 0, Size: 4936, Latency: 986.4321, Age: 1031.1},
				{Committee: 7, Size: 1612, Latency: 2017.5, Age: 0, Deferrals: 2},
			},
			Presolved: []ShardRecord{
				{Committee: 3, Size: 12, Latency: 4.25, Age: 2013.25, Deferrals: 1},
				{Committee: 5, Size: 40, Latency: 1000, Age: 1017.5},
			},
			Solver: SolverFingerprint{
				Kind: KindSE, Seed: -7, Beta: 2, Gamma: 25,
				MaxIters: 20000, ConvergenceWindow: 600, SwapRetries: 8,
				MaxThreads: 1024,
				RawRates:   true, WarmStart: true,
			},
			Warm: true, WarmPrev: []int{0, 1},
			NonReplayable: "events",
			Selected:      []int{0},
			Utility:       40520.125, Load: 28334, Count: 1, Iterations: 1999,
			Marginals: []core.Marginal{{Shard: 0, Utility: 6372.9, Binding: true}},
			Rejected: []core.Rejection{
				{Shard: 1, Value: 2418, Evicted: []int{0}, EvictedValue: 6372.9, NetGain: -3954.9, Feasible: true},
				{Shard: 1, Value: 1, NetGain: 1},
			},
			Deferrals: []DeferralEvent{
				{Committee: 7, Kind: Deferred, Deferrals: 1},
				{Committee: 9, Kind: Expired, Deferrals: 3, MaxDeferrals: 2},
			},
			Diag: &seobs.Digest{
				Rounds: 2000, Improvements: 37, TimeToEpsRounds: -1,
				BestUtility: 40520.125, HaveBest: true, WarmStarts: 1,
			},
			Tasks: []TaskRecord{
				{TaskID: "task-0", Seed: 1, Iterations: 512, Utility: 40520.125, Selected: []int{0}},
				{TaskID: "task-1", Seed: 7920, Err: `worker died: "conn reset" <oops> & more`},
			},
		},
		{
			Schema: SchemaVersion, Epoch: 3,
			DDL: 1e-9, Alpha: 1e22, Utility: 1.25e-7, // 'e'-format floats
			Shards:        []ShardRecord{{Latency: 2.5e21, Age: -1e-8}},
			Solver:        SolverFingerprint{Kind: "kind\nwith\tescapes "},
			NonReplayable: "non-ascii: ε≤3%",
			Selected:      []int{},
		},
	}
}

// TestAppendEntryJSONMatchesEncodingJSON pins the hand-rolled encoder
// byte-for-byte to encoding/json over Entry's struct tags: the schema
// is whatever reflection would have produced, so readers and old
// journals cannot tell the difference.
func TestAppendEntryJSONMatchesEncodingJSON(t *testing.T) {
	for i, e := range marshalCases() {
		want, err := json.Marshal(&e)
		if err != nil {
			t.Fatalf("case %d: reference marshal: %v", i, err)
		}
		got := appendEntryJSON(nil, &e)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: encoder diverged\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestAppendEntryJSONRoundTrips proves a hand-encoded entry decodes
// back to an identical value through the package's own reader types.
func TestAppendEntryJSONRoundTrips(t *testing.T) {
	for i, e := range marshalCases() {
		var dec Entry
		if err := json.Unmarshal(appendEntryJSON(nil, &e), &dec); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		ref, _ := json.Marshal(&e)
		var want Entry
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatalf("case %d: reference decode: %v", i, err)
		}
		gotJSON, _ := json.Marshal(&dec)
		wantJSON, _ := json.Marshal(&want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("case %d: round trip diverged\n got: %s\nwant: %s", i, gotJSON, wantJSON)
		}
	}
}

// benchEntry builds an entry shaped like the serve loop's steady state
// (BenchmarkEpochServeDecisionLog's pipeline: ~2 dozen live shards,
// a handful selected, top-8 counterfactuals, convergence digest).
func benchEntry() Entry {
	e := Entry{
		Schema: SchemaVersion, Epoch: 1000, TraceID: 123456789,
		DDL: 2017.5, Alpha: 1.5, Capacity: 28410, Nmin: 2,
		Solver: SolverFingerprint{Kind: KindSE, Seed: 7, MaxIters: 2000, ConvergenceWindow: 2000},
		Warm:   true, WarmPrev: []int{0, 1, 2, 3, 4, 5, 6},
		Utility: 40520.125, Load: 28334, Count: 7, Iterations: 2000,
		Diag: &seobs.Digest{Rounds: 2000, Improvements: 37, TimeToEpsRounds: 61, BestUtility: 40520.125, HaveBest: true},
	}
	for i := 0; i < 24; i++ {
		e.Shards = append(e.Shards, ShardRecord{Committee: i % 12, Size: 1000 + 37*i, Latency: 986.4321 + float64(i), Age: float64(i) * 1.5, Deferrals: i % 3})
	}
	for i := 0; i < 7; i++ {
		e.Selected = append(e.Selected, i)
		e.Marginals = append(e.Marginals, core.Marginal{Shard: i, Utility: 6372.9 + float64(i)})
	}
	for i := 0; i < 8; i++ {
		e.Rejected = append(e.Rejected, core.Rejection{Shard: 7 + i, Value: 2418.25, Evicted: []int{0, 1}, EvictedValue: 6372.9, NetGain: -3954.65, Feasible: true})
	}
	return e
}

// BenchmarkAppendEntryJSON isolates the hand-rolled encoder's cost on a
// steady-state entry.
func BenchmarkAppendEntryJSON(b *testing.B) {
	e := benchEntry()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendEntryJSON(buf[:0], &e)
	}
	if len(buf) == 0 {
		b.Fatal("empty encode")
	}
}

// BenchmarkJournalAppend measures the journal's full per-entry cost —
// acquire, copy-in, queue, render, batch-write, ring copy — which on a
// single-core host is the journal's entire serve-loop overhead.
func BenchmarkJournalAppend(b *testing.B) {
	j, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	src := benchEntry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := j.Acquire()
		*e = Entry{
			Epoch: i, TraceID: src.TraceID, DDL: src.DDL, Alpha: src.Alpha,
			Capacity: src.Capacity, Nmin: src.Nmin,
			Shards: append(e.Shards[:0], src.Shards...),
			Solver: src.Solver, Warm: src.Warm,
			WarmPrev: append(e.WarmPrev[:0], src.WarmPrev...),
			Selected: append(e.Selected[:0], src.Selected...),
			Utility:  src.Utility, Load: src.Load, Count: src.Count, Iterations: src.Iterations,
			Marginals: append(e.Marginals[:0], src.Marginals...),
			Rejected:  append(e.Rejected[:0], src.Rejected...),
			Diag:      src.Diag,
			pooled:    e.pooled,
		}
		if err := j.Append(e); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.Sync(); err != nil {
		b.Fatal(err)
	}
}
