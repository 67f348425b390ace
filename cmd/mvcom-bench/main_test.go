package main

import "testing"

func TestRunSingleFigure(t *testing.T) {
	if err := run([]string{"-fig", "9a", "-scale", "0.3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithOutputDir(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "2b", "-scale", "0.2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunBadScale(t *testing.T) {
	if err := run([]string{"-fig", "9a", "-scale", "7"}); err == nil {
		t.Fatal("bad scale accepted")
	}
}
