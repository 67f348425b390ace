package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRaw(t *testing.T, dir, name string, slowdown float64) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("goos: linux\ngoarch: amd64\npkg: mvcom\n")
	for _, jitter := range []float64{1.000, 0.985, 1.012, 0.991, 1.021} {
		fmt.Fprintf(&sb, "BenchmarkSESolveSize/I=200-8 \t 30 \t %.0f ns/op \t 1842962 B/op \t 2323 allocs/op\n",
			3891097*jitter*slowdown)
	}
	sb.WriteString("PASS\nok  \tmvcom\t1.0s\n")
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestIngestAndDiffGate(t *testing.T) {
	dir := t.TempDir()
	baseRaw := writeRaw(t, dir, "base.txt", 1.0)
	slowRaw := writeRaw(t, dir, "slow.txt", 1.20)
	basePath := filepath.Join(dir, "base.json")
	slowPath := filepath.Join(dir, "slow.json")

	if err := run([]string{"-ingest", baseRaw, "-out", basePath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-ingest", slowRaw, "-out", slowPath}); err != nil {
		t.Fatal(err)
	}

	// Self-diff: identical journals must pass the gate.
	if err := run([]string{"-old", basePath, "-new", basePath}); err != nil {
		t.Fatalf("self-diff failed the gate: %v", err)
	}
	// 20% slowdown on the same environment fingerprint must fail it.
	if err := run([]string{"-old", basePath, "-new", slowPath}); err == nil {
		t.Fatal("20% slowdown passed the gate")
	}
	// -warn-only demotes the same regression to an exit-0 warning (the
	// nightly informational diff).
	if err := run([]string{"-old", basePath, "-new", slowPath, "-warn-only"}); err != nil {
		t.Fatalf("-warn-only still failed: %v", err)
	}
}

func TestNoModeIsAnError(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("mode-less invocation accepted")
	}
}
