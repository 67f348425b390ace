package main

import (
	"path/filepath"
	"testing"

	"mvcom/internal/benchjournal"
)

func TestRunSmoke(t *testing.T) {
	args := []string{"-committees", "6", "-committee-size", "4", "-epochs", "20",
		"-se-iters", "400", "-sample-every", "4", "-q"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaultsAndJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "BENCH_SOAK.json")
	args := []string{"-committees", "6", "-committee-size", "4", "-epochs", "20",
		"-se-iters", "400", "-sample-every", "4", "-q",
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
		"-se-iters", "400", "-sample-every", "4", "-warm=false", "-q"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveSoakNoSlowerThanFixed serves the same seeded warm-start
// loop with the fixed and the annealed SE schedule: the adaptive run's
// mean rounds-to-ε over its warm epochs must not exceed the fixed run's.
// Warm-started epochs usually tie; a regression here means a schedule
// decision disturbs converged epochs. The run is deterministic at any
// GOMAXPROCS (the SE kernel is bit-identical across worker counts).
func TestAdaptiveSoakNoSlowerThanFixed(t *testing.T) {
	meanTTE := func(extra ...string) float64 {
		t.Helper()
		s, err := soak(append([]string{"-epochs", "40", "-se-iters", "800", "-q"}, extra...))
		if err != nil {
			t.Fatal(err)
		}
		if s.tteN == 0 {
			t.Fatalf("no warm epoch reached ε (args %v)", extra)
		}
		return s.tteSum / float64(s.tteN)
	}
	fixed, adaptive := meanTTE(), meanTTE("-adaptive")
	t.Logf("mean rounds-to-ε: adaptive %.1f, fixed %.1f", adaptive, fixed)
	if adaptive > fixed {
		t.Fatalf("adaptive schedule slowed convergence: %.1f rounds-to-ε vs fixed %.1f", adaptive, fixed)
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
