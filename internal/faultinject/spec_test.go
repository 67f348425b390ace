package faultinject

import (
	"math"
	"testing"
	"time"
)

func TestParseEmptySpecIsOff(t *testing.T) {
	for _, spec := range []string{"", "   ", ";", " ; "} {
		in, err := Parse(spec, 1)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if in != nil {
			t.Fatalf("spec %q produced a live injector", spec)
		}
	}
}

func TestParseFullGrammar(t *testing.T) {
	in, err := Parse("worker.send:after=2,times=1,action=drop; worker.dial:prob=0.25 ;coordinator.recv:action=delay,delay=50ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 3 {
		t.Fatalf("armed %d points, want 3", len(in.rules))
	}
	// worker.send: two passes free, then one drop, then exhausted.
	if d := in.Eval("worker.send"); d.Action != ActNone {
		t.Fatal("fired on first hit despite after=2")
	}
	in.Eval("worker.send")
	if d := in.Eval("worker.send"); d.Action != ActDrop {
		t.Fatalf("third hit action %v, want drop", d.Action)
	}
	if d := in.Eval("worker.send"); d.Action != ActNone {
		t.Fatal("fired past times=1")
	}
	// coordinator.recv: delay decision with the parsed duration.
	if d := in.Eval("coordinator.recv"); d.Action != ActDelay || d.Delay != 50*time.Millisecond {
		t.Fatalf("delay decision %+v", d)
	}
}

func TestParseBarePointDefaultsToError(t *testing.T) {
	in, err := Parse("worker.task", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Eval("worker.task"); d.Action != ActError || d.Err == nil {
		t.Fatalf("bare point decision %+v", d)
	}
}

func TestParseDelayActionDefaultDuration(t *testing.T) {
	in, err := Parse("p:action=delay", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Eval("p"); d.Action != ActDelay || d.Delay <= 0 {
		t.Fatalf("decision %+v", d)
	}
}

func TestParseProcessActions(t *testing.T) {
	in, err := Parse("proc.w1:times=1,action=kill;proc.w2:action=restart,delay=200ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Eval("proc.w1"); d.Action != ActKill {
		t.Fatalf("proc.w1 decision %+v, want kill", d)
	}
	if d := in.Eval("proc.w1"); d.Action != ActNone {
		t.Fatal("kill fired past times=1")
	}
	d := in.Eval("proc.w2")
	if d.Action != ActRestart || d.Delay != 200*time.Millisecond {
		t.Fatalf("proc.w2 decision %+v, want restart with 200ms relaunch delay", d)
	}
	if ActKill.String() != "kill" || ActRestart.String() != "restart" {
		t.Fatalf("action names %q %q", ActKill.String(), ActRestart.String())
	}
}

// garbageSpecs are malformed specs Parse must reject; FuzzParse seeds
// from them too.
var garbageSpecs = []string{
	"p:prob=abc",
	"p:after=1.5",
	"p:times=x",
	"p:delay=fast",
	"p:action=explode",
	"p:wat=1",
	"p:justaword",
	":prob=1",
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range garbageSpecs {
		if _, err := Parse(spec, 1); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

// TestParseRejectsNaNProb: NaN passes a "p < 0 || p > 1" range check and
// then skips the probability coin, so the rule would fire on every hit.
func TestParseRejectsNaNProb(t *testing.T) {
	if _, err := Parse("p:prob=nan,action=kill", 1); err == nil {
		t.Fatal("prob=nan accepted")
	}
	if _, err := New(1, Rule{Point: "p", Prob: math.NaN()}); err == nil {
		t.Fatal("New accepted a NaN prob")
	}
}

// TestParseRejectsNonPositiveDelay: an explicit delay must be positive;
// only a missing one takes the default.
func TestParseRejectsNonPositiveDelay(t *testing.T) {
	for _, spec := range []string{
		"p:delay=-1s,action=delay",
		"p:action=delay,delay=0s",
		"p:action=restart,delay=-5ms",
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}
