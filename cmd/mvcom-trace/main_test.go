package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvcom/internal/obs"
)

// writeDump saves a one-epoch span dump, the file mvcom-dist -trace-out
// writes, and returns its path.
func writeDump(t *testing.T) string {
	t.Helper()
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	tc := reg.TraceContext()
	root := tc.StartRoot("epoch", "coordinator")
	tc.StartSpan("solve", "coordinator", root.Context()).Finish()
	root.Finish()
	path := filepath.Join(t.TempDir(), "coordinator_trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Tracer().StreamJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMergeWritesTimelineAndTree(t *testing.T) {
	dump := writeDump(t)
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "timeline.json")
	if err := run([]string{"-merge", "-out", jsonOut, "coordinator=" + dump}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var merged struct {
		Timeline struct {
			Spans int `json:"spans"`
		} `json:"timeline"`
	}
	if err := json.Unmarshal(data, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Timeline.Spans != 2 {
		t.Fatalf("merged %d spans, want 2", merged.Timeline.Spans)
	}

	treeOut := filepath.Join(dir, "timeline.txt")
	if err := run([]string{"-merge", "-tree", "-out", treeOut, "coordinator=" + dump}); err != nil {
		t.Fatal(err)
	}
	tree, err := os.ReadFile(treeOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tree), "node coordinator") || !strings.Contains(string(tree), "solve") {
		t.Fatalf("tree lacks the node or the child span:\n%s", tree)
	}
}

func TestMergeRequired(t *testing.T) {
	if err := run([]string{writeDump(t)}); err == nil {
		t.Fatal("run without -merge accepted")
	}
	if err := run([]string{"-merge"}); err == nil {
		t.Fatal("-merge without a dump accepted")
	}
}

func TestReadMissingFile(t *testing.T) {
	if err := run([]string{"-merge", "/nonexistent/trace.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
}
