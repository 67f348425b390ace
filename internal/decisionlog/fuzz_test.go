package decisionlog

import (
	"bytes"
	"testing"
)

// FuzzVerify feeds one journal line through ReadFile's decoder and
// verifies every entry it yields: whatever the bytes, Verify must return
// an answer, not panic. The replay budget, not the target, bounds the
// work a line can ask for.
func FuzzVerify(f *testing.F) {
	warm := solveEntry(f, 2, 9)
	warm.Solver.WarmStart = true
	warm.Warm, warm.WarmPrev = true, []int{0, 1}
	seeds := append(marshalCases(), solveEntry(f, 1, 42), warm, distEntry(f), *infeasibleSwapEntry())
	for i := range seeds {
		f.Add(appendEntryJSON(nil, &seeds[i]))
	}
	f.Add([]byte("{\"schema\":1}\nnot json\n"))
	f.Fuzz(func(t *testing.T, line []byte) {
		entries, err := readEntries(bytes.NewReader(line), "fuzz")
		if err != nil {
			return
		}
		for i := range entries {
			_ = Verify(&entries[i])
		}
	})
}
