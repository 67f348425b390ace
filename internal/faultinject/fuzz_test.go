package faultinject

import "testing"

// FuzzParse checks that no spec panics Parse and that every rule of an
// injector it returns satisfies New's contract.
func FuzzParse(f *testing.F) {
	for _, spec := range append([]string{
		"", " ; ",
		"worker.send:after=2,times=1,action=drop; worker.dial:prob=0.25 ;coordinator.recv:action=delay,delay=50ms",
		"worker.task",
		"p:action=delay",
		"proc.w1:times=1,action=kill;proc.w2:action=restart,delay=200ms",
		"p:prob=nan,action=kill",
		"p:delay=-1s,action=delay",
	}, garbageSpecs...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil || in == nil {
			return
		}
		for point, st := range in.rules {
			r := st.rule
			switch {
			case r.Point == "" || r.Point != point:
				t.Fatalf("spec %q: rule keyed %q has point %q", spec, point, r.Point)
			case !(r.Prob >= 0 && r.Prob <= 1):
				t.Fatalf("spec %q: point %s prob %v outside [0, 1]", spec, point, r.Prob)
			case r.After < 0 || r.Times < 0:
				t.Fatalf("spec %q: point %s after %d times %d", spec, point, r.After, r.Times)
			case r.Action == ActNone || r.Action > ActRestart:
				t.Fatalf("spec %q: point %s action %v", spec, point, r.Action)
			case r.Action == ActDelay && r.Delay <= 0:
				t.Fatalf("spec %q: point %s delays %v", spec, point, r.Delay)
			}
		}
	})
}
