package procharness

import (
	"strings"
	"testing"
	"time"
)

// validScript uses every operation once; FuzzParseScenario seeds from it.
const validScript = `
# boot the cluster
start coord
wait-ready coord 5s
start w1        # first worker
sleep 250ms
kill w1
restart w1
wait-exit w1 2s
partition net
heal net
chaos-tick
`

func TestParseScenarioValid(t *testing.T) {
	steps, err := ParseScenarioString(validScript)
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{
		{Op: "start", Target: "coord", Line: 3},
		{Op: "wait-ready", Target: "coord", D: 5 * time.Second, Line: 4},
		{Op: "start", Target: "w1", Line: 5},
		{Op: "sleep", D: 250 * time.Millisecond, Line: 6},
		{Op: "kill", Target: "w1", Line: 7},
		{Op: "restart", Target: "w1", Line: 8},
		{Op: "wait-exit", Target: "w1", D: 2 * time.Second, Line: 9},
		{Op: "partition", Target: "net", Line: 10},
		{Op: "heal", Target: "net", Line: 11},
		{Op: "chaos-tick", Line: 12},
	}
	if len(steps) != len(want) {
		t.Fatalf("parsed %d steps, want %d: %+v", len(steps), len(want), steps)
	}
	for i, s := range steps {
		if s != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, s, want[i])
		}
	}
}

// garbageScripts are one-line scripts ParseScenario must reject;
// FuzzParseScenario seeds from them too.
var garbageScripts = []string{
	"explode w1",          // unknown op
	"start",               // missing target
	"sleep",               // missing duration
	"sleep fast",          // bad duration
	"sleep -1s",           // negative duration
	"kill w1 extra",       // trailing token
	"wait-ready w1 5s no", // trailing token after optional duration
	"chaos-tick w1",       // op takes no args
}

func TestParseScenarioGarbage(t *testing.T) {
	for _, script := range garbageScripts {
		if _, err := ParseScenarioString(script); err == nil {
			t.Fatalf("script %q accepted", script)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Fatalf("script %q: error %v lacks a line number", script, err)
		}
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	h := newTestHarness(t, Options{})
	spec := sh("w", "echo up; sleep 60")
	spec.ReadyLog = "up"
	if err := h.Define(spec); err != nil {
		t.Fatal(err)
	}
	steps, err := ParseScenarioString(`
start w
wait-ready w 5s
restart w
wait-ready w 5s
kill w
wait-exit w 5s
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RunScenario(steps); err != nil {
		t.Fatal(err)
	}
	if p := h.Proc("w"); p.Incarnation != 1 {
		t.Fatalf("incarnation %d, want 1 after one restart", p.Incarnation)
	}
}

func TestRunScenarioErrorCarriesLine(t *testing.T) {
	h := newTestHarness(t, Options{})
	steps, err := ParseScenarioString("start ghost")
	if err != nil {
		t.Fatal(err)
	}
	rerr := h.RunScenario(steps)
	if rerr == nil {
		t.Fatal("scenario with undefined process succeeded")
	}
	if !strings.Contains(rerr.Error(), "line 1") {
		t.Fatalf("error %v lacks the script line", rerr)
	}
}
