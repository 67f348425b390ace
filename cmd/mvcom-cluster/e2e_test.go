package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// binDir holds the real binaries TestMain builds once for the e2e runs.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mvcom-cluster-e2e-")
	if err != nil {
		panic(err)
	}
	build := exec.Command("go", "build", "-o", dir,
		"./cmd/mvcom-dist", "./cmd/mvcom-cluster")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building e2e binaries: " + err.Error() + "\n" + string(out))
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func readSummary(t *testing.T, path string) summary {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterChaosEndToEnd is the issue's headline scenario: a
// coordinator and two workers as separate OS processes solving a real
// epoch stream over loopback TCP, one worker SIGKILLed mid-run and
// restarted. The run must complete, the best utility must equal a clean
// single-process twin, and the merged cross-process timeline must have
// zero orphan spans.
func TestClusterChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	out := t.TempDir()
	err := run([]string{
		"-bin-dir", binDir, "-out", out,
		"-workers", "2", "-epochs", "2",
		"-shards", "12", "-capacity", "9000",
		"-iters", "2500", "-report-every", "50", "-throttle", "8ms",
		"-seed", "7",
		"-kill", "w1", "-kill-after-progress", "4", "-restart-delay", "250ms",
		"-epoch-timeout", "45s",
	})
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	s := readSummary(t, filepath.Join(out, "summary.json"))
	if !s.Pass {
		t.Fatalf("summary reports failure: %+v", s.Gates)
	}
	if s.Restarts < 1 {
		t.Fatalf("no restart recorded: %+v", s)
	}
	if s.Orphans != 0 {
		t.Fatalf("merged timeline has %d orphan spans", s.Orphans)
	}
	if len(s.EpochUtilities) != 2 || len(s.TwinUtilities) != 2 {
		t.Fatalf("epoch results incomplete: %+v", s)
	}
	for i := range s.EpochUtilities {
		if s.EpochUtilities[i] != s.TwinUtilities[i] {
			t.Fatalf("epoch %d utility %.6f != twin %.6f", i, s.EpochUtilities[i], s.TwinUtilities[i])
		}
	}
	for _, artifact := range []string{
		"cluster_timeline.json", "cluster_timeline.txt",
		"coordinator_result.json", "twin_result.json",
		"coordinator.0.stdout.log", "w1.0.stdout.log", "w1.1.stdout.log",
	} {
		if _, err := os.Stat(filepath.Join(out, artifact)); err != nil {
			t.Errorf("missing artifact %s: %v", artifact, err)
		}
	}
}

// TestClusterLeaveEventExcludesShard drives the Theorem 2 dynamic-leave
// path through the multi-process deployment: a committee departs
// mid-epoch, and the final selection of every epoch must exclude it
// (the dip + re-convergence of Theorem 2 lands on a feasible set
// without the departed shard).
func TestClusterLeaveEventExcludesShard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	out := t.TempDir()
	err := run([]string{
		"-bin-dir", binDir, "-out", out,
		"-workers", "2", "-epochs", "1",
		"-shards", "12", "-capacity", "9000",
		"-iters", "3000", "-report-every", "50", "-throttle", "8ms",
		"-seed", "11",
		"-kill", "", "-twin=false", // events shift the run away from its eventless twin
		"-events", "leave@300ms:index=3",
		"-expect-excluded", "3",
		"-epoch-timeout", "45s",
	})
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	s := readSummary(t, filepath.Join(out, "summary.json"))
	found := false
	for _, g := range s.Gates {
		if g.Name == "departed-shards-excluded" {
			found = true
			if !g.Pass {
				t.Fatalf("departed shard still selected: %s", g.Detail)
			}
		}
	}
	if !found {
		t.Fatal("exclusion gate missing from summary")
	}
}
