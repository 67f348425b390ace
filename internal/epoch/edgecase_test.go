package epoch

// Regression tests for the failure/arrival edge cases of the epoch
// pipeline: the zero-latency consensus-failure bug and the
// admissionDeadline quantile.

import (
	"testing"
	"time"
)

// TestMarkConsensusFailed pins the consensus-failure semantics: the old
// code reported a zero latency for a committee whose PBFT/overlay stage
// errored, which made the *failed* committee the fastest submitter and
// let it define the admission deadline. A failed committee must instead
// be marked failed with a sentinel late latency, and must never close
// the admission window.
func TestMarkConsensusFailed(t *testing.T) {
	rep := CommitteeReport{Committee: 3, Formation: 100 * time.Second, Consensus: 5 * time.Second,
		TwoPhase: 105 * time.Second}
	markConsensusFailed(&rep)
	if !rep.Failed {
		t.Fatal("consensus failure did not mark the report failed")
	}
	if rep.Consensus != consensusFailedLatency {
		t.Fatalf("consensus latency %v, want the sentinel %v", rep.Consensus, consensusFailedLatency)
	}
	if rep.TwoPhase != 100*time.Second+consensusFailedLatency {
		t.Fatalf("two-phase latency %v does not carry the sentinel", rep.TwoPhase)
	}
	if rep.TwoPhase < 0 {
		t.Fatal("sentinel overflowed time.Duration")
	}

	// The failed committee must not define the deadline at any fraction —
	// with the old zero-latency bug a 0.25 quantile over these four
	// reports would have returned 0.
	reports := []CommitteeReport{
		rep,
		{TwoPhase: 100 * time.Second},
		{TwoPhase: 300 * time.Second},
		{TwoPhase: 200 * time.Second},
	}
	for _, frac := range []float64{0.01, 0.25, 0.5, 1.0} {
		got := admissionDeadline(reports, frac)
		if got <= 0 || got >= consensusFailedLatency {
			t.Fatalf("frac %v: deadline %v tainted by the failed committee", frac, got)
		}
	}
	if got := admissionDeadline(reports, 1.0); got != 300*time.Second {
		t.Fatalf("frac 1.0 over live committees: got %v want 300s", got)
	}
	// Every committee failed: no one can close the window.
	allFailed := []CommitteeReport{{Failed: true, TwoPhase: time.Second}}
	if got := admissionDeadline(allFailed, 0.8); got != 0 {
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
	if got := admissionDeadline(many, 0.8); got != 28*time.Second {
		t.Fatalf("0.8 of 35: got %v want 28s (⌈0.8·35⌉ = 28th arrival)", got)
	}
	if got := admissionDeadline(many, 0); got != time.Second {
		t.Fatalf("fraction 0: got %v want the first arrival", got)
	}
	if got := admissionDeadline(many, 1); got != 35*time.Second {
		t.Fatalf("fraction 1: got %v want the last arrival", got)
	}
	single := []CommitteeReport{{TwoPhase: 7 * time.Second}}
	for _, frac := range []float64{0, 0.01, 0.5, 1} {
		if got := admissionDeadline(single, frac); got != 7*time.Second {
			t.Fatalf("single report, frac %v: got %v want 7s", frac, got)
		}
	}
	// Failed committees shrink the population the quantile ranks over.
	mixed := make([]CommitteeReport, 35)
	copy(mixed, many)
	for i := 0; i < 5; i++ {
		mixed[i].Failed = true // the five fastest die
	}
	if got := admissionDeadline(mixed, 0.8); got != 29*time.Second {
		t.Fatalf("0.8 of 30 live: got %v want 29s (24th live arrival)", got)
	}
}
