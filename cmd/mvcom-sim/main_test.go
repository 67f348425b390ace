package main

import "testing"

func TestRunSchedulers(t *testing.T) {
	for _, sched := range []string{"se", "greedy", "acceptall"} {
		args := []string{"-committees", "8", "-committee-size", "4", "-epochs", "2", "-scheduler", sched}
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
	}
}

func TestRunWithFailures(t *testing.T) {
	args := []string{"-committees", "10", "-committee-size", "4", "-epochs", "2", "-failure-rate", "0.2", "-scheduler", "greedy"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownScheduler(t *testing.T) {
	if err := run([]string{"-scheduler", "magic"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestRunBadCapacity(t *testing.T) {
	if err := run([]string{"-committees", "4", "-capacity-frac", "0"}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestRunBadFailureRate(t *testing.T) {
	for _, p := range []string{"1", "-0.1", "NaN"} {
		if err := run([]string{"-committees", "4", "-failure-rate", p}); err == nil {
			t.Fatalf("failure rate %s accepted", p)
		}
	}
}
