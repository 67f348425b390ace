package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvcom/internal/benchjournal"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
)

func TestRunSmoke(t *testing.T) {
	args := []string{"-committees", "6", "-committee-size", "4", "-epochs", "20",
		"-se-iters", "400", "-q"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

// TestSoakStreamWindowsBounded: a duration-only soak starts at one epoch
// per window, so the sampler must fold its windows instead of growing
// one per epoch; the folded windows still account for every epoch, and
// their heap minimum and load mean survive the folds.
func TestSoakStreamWindowsBounded(t *testing.T) {
	s := &soakStream{sampleEvery: 1}
	const served = 3000
	for i := 0; i < served; i++ {
		if err := s.Deliver(&epoch.Result{Solution: core.Solution{Load: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	s.closeWindow()
	if len(s.windows) > maxWindows {
		t.Fatalf("%d windows after %d epochs, cap %d", len(s.windows), served, maxWindows)
	}
	sum := 0
	for _, w := range s.windows {
		sum += w.epochs
		if w.meanLoad != 10 || w.heap == 0 || w.goroutines == 0 {
			t.Fatalf("folded window %+v lost its samples", w)
		}
	}
	if sum != served {
		t.Fatalf("windows hold %d epochs, %d served", sum, served)
	}
}

func TestRunWithFaultsAndJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "BENCH_SOAK.json")
	args := []string{"-committees", "6", "-committee-size", "4", "-epochs", "20",
		"-se-iters", "400", "-q",
		"-fault-spec", "epoch.committee:prob=0.2",
		"-journal", journal, "-note", "test"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	j, err := benchjournal.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	b := j.Find("Soak/epoch")
	if b == nil {
		t.Fatal("journal lacks the Soak/epoch benchmark")
	}
	if b.NsPerOp.Median <= 0 || b.NsPerOp.Count < 2 {
		t.Fatalf("steady-state latency summary %+v", b.NsPerOp)
	}
	if _, ok := b.Metrics["heap-bytes"]; !ok {
		t.Fatalf("journal metrics %v lack heap-bytes", b.Metrics)
	}
}

func TestRunColdComparison(t *testing.T) {
	args := []string{"-committees", "6", "-committee-size", "4", "-epochs", "12",
		"-se-iters", "400", "-warm=false", "-q"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesUsedDecisionLog: a second run on a -decision-log
// directory that holds the first run's journal is refused, and the
// journal keeps the first run's entries only.
func TestRunRefusesUsedDecisionLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "decisions")
	args := []string{"-committees", "6", "-committee-size", "4", "-epochs", "5",
		"-se-iters", "200", "-q", "-decision-log", dir}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(args); err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second run = %v, want a refusal naming %s", err, dir)
	}
	entries, _, err := decisionlog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("journal holds %d entries, want the first run's 5", len(entries))
	}
}

// TestRunJournalDeterministic is a cross-run determinism gate: two runs
// with the presolve soak's flags (./ci.sh soak) write byte-identical
// decision journals. Replay cannot show this, since it re-solves the
// recorded inputs; this pins that the stage models, the trace and
// presolve are pure functions of the seed. -timeline stays off: its
// tracer seeds trace IDs from the pid and the wall clock, and every
// entry records its epoch's trace ID.
func TestRunJournalDeterministic(t *testing.T) {
	var journals [2][]byte
	for i := range journals {
		dir := filepath.Join(t.TempDir(), "decisions")
		args := []string{"-epochs", "30", "-se-iters", "800", "-alpha", "0.2", "-q", "-decision-log", dir}
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "decisions-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			journals[i] = append(journals[i], b...)
		}
	}
	if !bytes.Contains(journals[0], []byte(`"presolved":[`)) {
		t.Fatal("the journal records no presolved shard: the gate no longer covers presolve")
	}
	if !bytes.Equal(journals[0], journals[1]) {
		t.Fatalf("same-flag runs wrote different journals (%d vs %d bytes)", len(journals[0]), len(journals[1]))
	}
}

func TestRunBadInputs(t *testing.T) {
	if err := run([]string{"-epochs", "0"}); err == nil {
		t.Fatal("no budget accepted")
	}
	if err := run([]string{"-capacity-frac", "0"}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if err := run([]string{"-fault-spec", "epoch.committee:nope=1"}); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}
