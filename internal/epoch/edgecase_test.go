package epoch

// Regression tests for the failure/arrival edge cases of the epoch
// pipeline: failed committees and the admissionDeadline quantile.

import (
	"testing"
	"time"
)

// TestFailedCommitteeNeverClosesWindow pins that admissionDeadline ranks
// live committees only: a failed committee that reports first must not
// define the deadline at any fraction (a zero-latency failed report once
// made the failed committee the fastest submitter, and a 0.25 quantile
// over these four reports returned 0).
func TestFailedCommitteeNeverClosesWindow(t *testing.T) {
	reports := []CommitteeReport{
		{Failed: true},
		{TwoPhase: 100 * time.Second},
		{TwoPhase: 300 * time.Second},
		{TwoPhase: 200 * time.Second},
	}
	for _, frac := range []float64{0.01, 0.25, 0.5} {
		if got := admissionDeadline(nil, reports, frac); got < 100*time.Second {
			t.Fatalf("frac %v: deadline %v tainted by the failed committee", frac, got)
		}
	}
	if got := admissionDeadline(nil, reports, 1.0); got != 300*time.Second {
		t.Fatalf("frac 1.0 over live committees: got %v want 300s", got)
	}
	// Every committee failed: no one can close the window.
	allFailed := []CommitteeReport{{Failed: true, TwoPhase: time.Second}}
	if got := admissionDeadline(nil, allFailed, 0.8); got != 0 {
		t.Fatalf("all-failed deadline %v, want 0", got)
	}
}

// TestAdmissionDeadlineQuantile pins the math.Ceil quantile against the
// former +0.999999 hack on the edges the hack got right by accident —
// and the ones it documents poorly: fraction 0, fraction 1, a
// single-report slice, and an exact product that floating point nudges
// just above an integer (0.8·35).
func TestAdmissionDeadlineQuantile(t *testing.T) {
	many := make([]CommitteeReport, 35)
	for i := range many {
		many[i] = CommitteeReport{TwoPhase: time.Duration(i+1) * time.Second}
	}
	if got := admissionDeadline(nil, many, 0.8); got != 28*time.Second {
		t.Fatalf("0.8 of 35: got %v want 28s (⌈0.8·35⌉ = 28th arrival)", got)
	}
	if got := admissionDeadline(nil, many, 0); got != time.Second {
		t.Fatalf("fraction 0: got %v want the first arrival", got)
	}
	if got := admissionDeadline(nil, many, 1); got != 35*time.Second {
		t.Fatalf("fraction 1: got %v want the last arrival", got)
	}
	single := []CommitteeReport{{TwoPhase: 7 * time.Second}}
	for _, frac := range []float64{0, 0.01, 0.5, 1} {
		if got := admissionDeadline(nil, single, frac); got != 7*time.Second {
			t.Fatalf("single report, frac %v: got %v want 7s", frac, got)
		}
	}
	// Failed committees shrink the population the quantile ranks over.
	mixed := make([]CommitteeReport, 35)
	copy(mixed, many)
	for i := 0; i < 5; i++ {
		mixed[i].Failed = true // the five fastest die
	}
	if got := admissionDeadline(nil, mixed, 0.8); got != 29*time.Second {
		t.Fatalf("0.8 of 30 live: got %v want 29s (24th live arrival)", got)
	}
}
