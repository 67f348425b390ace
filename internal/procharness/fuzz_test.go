package procharness

import "testing"

// FuzzParseScenario checks that no script panics ParseScenario and that
// every step it returns is well formed: a known operation, a target
// exactly when the operation needs one, a non-negative duration, and
// strictly increasing line numbers.
func FuzzParseScenario(f *testing.F) {
	f.Add(validScript)
	f.Add("")
	f.Add("start w\nwait-ready w 5s\nrestart w\nkill w\nwait-exit w 5s\n")
	for _, s := range garbageScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		steps, err := ParseScenarioString(script)
		if err != nil {
			return
		}
		last := 0
		for _, st := range steps {
			shape, ok := opShapes[st.Op]
			switch {
			case !ok:
				t.Fatalf("script %q: unknown op %q", script, st.Op)
			case shape.needsTarget != (st.Target != ""):
				t.Fatalf("script %q: %s with target %q", script, st.Op, st.Target)
			case st.D < 0:
				t.Fatalf("script %q: %s with duration %v", script, st.Op, st.D)
			case st.Line <= last:
				t.Fatalf("script %q: line %d after line %d", script, st.Line, last)
			}
			last = st.Line
		}
	})
}
