package txgen

import (
	"bytes"
	"strings"
	"testing"

	"mvcom/internal/randx"
)

// FuzzReadCSV checks that arbitrary input never panics the parser and
// that anything it accepts survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	tr := Generate(randx.New(1), Config{})
	tr.Blocks = tr.Blocks[:8]
	if err := tr.WriteCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("blockID,bhash,btime,txs\n")
	f.Add("1,zz,1.0,5\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := got.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(again.Blocks) != len(got.Blocks) {
			t.Fatalf("round trip changed block count: %d vs %d", len(again.Blocks), len(got.Blocks))
		}
	})
}
