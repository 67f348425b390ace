package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func mustNew(t *testing.T, seed int64, rules ...Rule) *Injector {
	t.Helper()
	in, err := New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if d := in.Eval("anything"); d.Action != ActNone || d.Err != nil {
		t.Fatalf("nil injector fired: %+v", d)
	}
}

func TestUnknownPointNeverFires(t *testing.T) {
	in := mustNew(t, 1, Rule{Point: "a"})
	for i := 0; i < 10; i++ {
		if d := in.Eval("b"); d.Action != ActNone {
			t.Fatalf("unarmed point fired on hit %d", i)
		}
	}
}

func TestAfterWindowThenFires(t *testing.T) {
	in := mustNew(t, 1, Rule{Point: "p", After: 3, Action: ActDrop})
	for i := 0; i < 3; i++ {
		if d := in.Eval("p"); d.Action != ActNone {
			t.Fatalf("fired inside the After window at hit %d", i+1)
		}
	}
	d := in.Eval("p")
	if d.Action != ActDrop {
		t.Fatalf("hit 4 action = %v, want drop", d.Action)
	}
	if !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("decision error %v does not wrap ErrInjected", d.Err)
	}
	if st := in.rules["p"]; st.hits != 4 || st.fires != 1 {
		t.Fatalf("hits=%d fires=%d, want 4/1", st.hits, st.fires)
	}
}

func TestTimesCapExhausts(t *testing.T) {
	in := mustNew(t, 1, Rule{Point: "p", Times: 2})
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Eval("p").Action == ActError {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want exactly 2", fired)
	}
}

func TestProbabilityIsSeededDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		in := mustNew(t, seed, Rule{Point: "p", Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Eval("p").Action != ActNone
		}
		return out
	}
	a, b := run(7), run(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fired++
		}
	}
	// 64 fair-ish coins: both all-fire and no-fire would mean the
	// probability gate is broken.
	if fired == 0 || fired == 64 {
		t.Fatalf("prob=0.5 fired %d/64 times", fired)
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical coin sequences")
	}
}

func TestDelayActionCarriesDuration(t *testing.T) {
	in := mustNew(t, 1, Rule{Point: "p", Action: ActDelay, Delay: 5 * time.Millisecond})
	d := in.Eval("p")
	if d.Action != ActDelay || d.Delay != 5*time.Millisecond {
		t.Fatalf("decision %+v", d)
	}
	if d.Err != nil {
		t.Fatalf("delay decisions must not carry an error, got %v", d.Err)
	}
}

func TestNewRejectsBadRules(t *testing.T) {
	cases := []Rule{
		{Point: ""},
		{Point: "p", Prob: -0.1},
		{Point: "p", Prob: 1.5},
		{Point: "p", After: -1},
		{Point: "p", Times: -2},
		{Point: "p", Action: ActDelay}, // delay action without duration
	}
	for i, r := range cases {
		if _, err := New(1, r); err == nil {
			t.Fatalf("case %d: bad rule %+v accepted", i, r)
		}
	}
	if _, err := New(1, Rule{Point: "p"}, Rule{Point: "p"}); err == nil {
		t.Fatal("duplicate point accepted")
	}
}

func TestConcurrentEvalIsSafe(t *testing.T) {
	in := mustNew(t, 1, Rule{Point: "p", Prob: 0.5, Times: 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Eval("p")
			}
		}()
	}
	wg.Wait()
	if hits := in.rules["p"].hits; hits != 1600 {
		t.Fatalf("hits = %d, want 1600", hits)
	}
	if fires := in.rules["p"].fires; fires != 100 {
		t.Fatalf("fires = %d, want the Times cap 100", fires)
	}
}
