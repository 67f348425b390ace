package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMetricValue(t *testing.T) {
	body := `# HELP mvcom_dist_messages_total protocol messages
mvcom_dist_messages_total{role="coordinator",dir="rx",type="hello"} 2
mvcom_dist_messages_total{role="coordinator",dir="rx",type="progress"} 17
mvcom_dist_workers_connected 2
`
	v, ok := metricValue(body, `mvcom_dist_messages_total{role="coordinator",dir="rx",type="progress"}`)
	if !ok || v != 17 {
		t.Fatalf("got %v %v", v, ok)
	}
	if _, ok := metricValue(body, "mvcom_missing_metric"); ok {
		t.Fatal("found a metric that is not there")
	}
}

func TestUtilitiesEqual(t *testing.T) {
	mk := func(us ...float64) distResult {
		var r distResult
		for i, u := range us {
			r.Epochs = append(r.Epochs, struct {
				Epoch    int     `json:"epoch"`
				Utility  float64 `json:"utility"`
				Selected []int   `json:"selected"`
			}{Epoch: i, Utility: u})
		}
		return r
	}
	if ok, _ := utilitiesEqual(mk(1.5, 2.5), mk(1.5, 2.5)); !ok {
		t.Fatal("identical runs compared unequal")
	}
	if ok, detail := utilitiesEqual(mk(1.5, 2.5), mk(1.5, 2.6)); ok {
		t.Fatal("differing runs compared equal")
	} else if detail == "" {
		t.Fatal("no detail on mismatch")
	}
	if ok, _ := utilitiesEqual(mk(1.5), mk(1.5, 2.5)); ok {
		t.Fatal("different epoch counts compared equal")
	}
}

func TestCheckExcluded(t *testing.T) {
	var r distResult
	r.Epochs = append(r.Epochs, struct {
		Epoch    int     `json:"epoch"`
		Utility  float64 `json:"utility"`
		Selected []int   `json:"selected"`
	}{Epoch: 0, Utility: 1, Selected: []int{0, 2, 5}})
	if bad := checkExcluded(r, []int{3, 7}); len(bad) != 0 {
		t.Fatalf("clean exclusion flagged: %v", bad)
	}
	if bad := checkExcluded(r, []int{2}); len(bad) != 1 || bad[0] != "epoch0:shard2" {
		t.Fatalf("violation missed: %v", bad)
	}
}

func TestParseExcluded(t *testing.T) {
	got, err := parseExcluded(" 3, 7 ")
	if err != nil || len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("got %v %v", got, err)
	}
	if got, err := parseExcluded(""); err != nil || got != nil {
		t.Fatalf("blank: %v %v", got, err)
	}
	for _, bad := range []string{"x", "1,-2", "1,,2"} {
		if _, err := parseExcluded(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestResolveBinariesMissing(t *testing.T) {
	if _, err := resolveBinaries(t.TempDir()); err == nil {
		t.Fatal("empty bin dir accepted")
	}
}

// TestRunRefusesUsedDecisionsDir: a -out whose decisions directory holds
// an earlier run's journal is refused before any process starts, with
// an error naming the directory.
func TestRunRefusesUsedDecisionsDir(t *testing.T) {
	out := t.TempDir()
	decisions := filepath.Join(out, "decisions")
	if err := os.MkdirAll(decisions, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(decisions, "decisions-000000.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The empty bin dir would fail resolveBinaries; the journal check
	// must fire first.
	err := run([]string{"-out", out, "-bin-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), decisions) {
		t.Fatalf("run = %v, want a refusal naming %s", err, decisions)
	}
	if _, statErr := os.Stat(filepath.Join(out, "coordinator.0.stdout.log")); !os.IsNotExist(statErr) {
		t.Fatalf("a process ran before the refusal: %v", statErr)
	}
}
