package decisionlog

import (
	"testing"
)

// FuzzVerify feeds a segment's bytes through ReadFile's decoder and
// verifies every entry it yields: whatever the bytes, Verify must return
// an answer, not panic. The replay budget, not the target, bounds the
// work a line can ask for. A decoded segment reports a torn tail exactly
// when its final line lacks the newline.
func FuzzVerify(f *testing.F) {
	warm := solveEntry(f, 2, 9)
	warm.Solver.WarmStart = true
	warm.Warm, warm.WarmPrev = true, []int{0, 1}
	seeds := append(marshalCases(), solveEntry(f, 1, 42), warm, distEntry(f), *infeasibleSwapEntry())
	for i := range seeds {
		f.Add(append(appendEntryJSON(nil, &seeds[i]), '\n'))
	}
	f.Add([]byte("{\"schema\":1}\nnot json\n"))
	// Torn tails: an append cut 40 bytes short, a whole entry missing only
	// its newline, and a complete entry followed by a torn one.
	line := append(appendEntryJSON(nil, &seeds[len(seeds)-2]), '\n')
	f.Add(line[:len(line)-40])
	f.Add(line[:len(line)-1])
	f.Add(append(append([]byte(nil), line...), line[:len(line)/2]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		entries, torn, err := decodeSegment(b, "fuzz")
		if err != nil {
			return
		}
		if want := len(b) > 0 && b[len(b)-1] != '\n'; torn != want {
			t.Fatalf("torn = %v for a segment whose final byte is %q", torn, b[len(b)-1:])
		}
		for i := range entries {
			_ = Verify(&entries[i])
		}
	})
}
