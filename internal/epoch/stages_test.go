package epoch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mvcom/internal/randx"
)

func TestElectSorted(t *testing.T) {
	solvers := elect(randx.New(1), 100)
	if len(solvers) != 100 {
		t.Fatalf("solvers %d", len(solvers))
	}
	seen := make(map[int]bool, len(solvers))
	for i, s := range solvers {
		if seen[s.node] {
			t.Fatalf("node %d appears twice", s.node)
		}
		seen[s.node] = true
		if i > 0 {
			prev := solvers[i-1]
			if s.solveAt < prev.solveAt || s.solveAt == prev.solveAt && s.node < prev.node {
				t.Fatalf("solver %d out of solve order: %+v after %+v", i, s, prev)
			}
		}
	}
}

func TestElectMeanSolve(t *testing.T) {
	solvers := elect(randx.New(2), 40000)
	var sum float64
	for _, s := range solvers {
		sum += s.solveAt.Seconds()
	}
	// Hash-rate heterogeneity (a lognormal mean-1 divisor) inflates the
	// mean slightly; accept a ±10% band around the paper's 600 s.
	if mean := sum / float64(len(solvers)); math.Abs(mean-600) > 60 {
		t.Fatalf("mean solve %.1f s, want ~600", mean)
	}
}

func TestFormCommittees(t *testing.T) {
	coms := formCommittees(elect(randx.New(3), 120), 5, 20)
	if len(coms) != 5 {
		t.Fatalf("committees %d", len(coms))
	}
	seen := make(map[int]bool)
	for id, com := range coms {
		if len(com.members) != 20 {
			t.Fatalf("committee %d has %d members", id, len(com.members))
		}
		if com.formedAt <= 0 {
			t.Fatalf("committee %d formedAt %v", id, com.formedAt)
		}
		for _, m := range com.members {
			if seen[m] {
				t.Fatalf("node %d in two committees", m)
			}
			seen[m] = true
		}
	}
}

func TestFormCommitteesFormedAtIsMaxMemberSolve(t *testing.T) {
	solvers := []solver{
		{node: 0, solveAt: 1 * time.Second},
		{node: 1, solveAt: 2 * time.Second},
		{node: 2, solveAt: 3 * time.Second},
		{node: 3, solveAt: 10 * time.Second},
		{node: 4, solveAt: 11 * time.Second}, // surplus: wins no seat
	}
	coms := formCommittees(solvers, 2, 2)
	// Round-robin: committee 0 gets solvers 0,2; committee 1 gets 1,3.
	if got := coms[0]; got.formedAt != 3*time.Second || got.members[0] != 0 || got.members[1] != 2 {
		t.Fatalf("committee 0 = %+v", got)
	}
	if got := coms[1]; got.formedAt != 10*time.Second || got.members[0] != 1 || got.members[1] != 3 {
		t.Fatalf("committee 1 = %+v", got)
	}
}

// TestFormCommitteesPartitionProperty checks that the first
// committees·seats solvers are dealt into disjoint full committees and
// that formedAt is the latest member's solve time.
func TestFormCommitteesPartitionProperty(t *testing.T) {
	f := func(seed int64, rawComs, rawSeats, rawExtra uint8) bool {
		coms := int(rawComs)%40 + 1
		seats := int(rawSeats)%20 + 1
		solvers := elect(randx.New(seed), coms*seats+int(rawExtra)%16)
		solveAt := make(map[int]time.Duration, len(solvers))
		for _, s := range solvers {
			solveAt[s.node] = s.solveAt
		}
		seen := make(map[int]bool)
		for _, com := range formCommittees(solvers, coms, seats) {
			if len(com.members) != seats {
				return false
			}
			var latest time.Duration
			for _, m := range com.members {
				if seen[m] {
					return false
				}
				seen[m] = true
				latest = max(latest, solveAt[m])
			}
			if com.formedAt != latest {
				return false
			}
		}
		return len(seen) == coms*seats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFormCommitteesFormedAtFollowsID checks the order the pipeline's
// committee loop relies on: seats are dealt round-robin in solve order,
// so committee c's last seat is solver (seats−1)·committees + c and
// formedAt never decreases with the committee ID.
func TestFormCommitteesFormedAtFollowsID(t *testing.T) {
	f := func(seed int64, rawComs, rawSeats, rawExtra uint8) bool {
		coms := int(rawComs)%40 + 1
		seats := int(rawSeats)%20 + 1
		formed := formCommittees(elect(randx.New(seed), coms*seats+int(rawExtra)%16), coms, seats)
		for c := 1; c < len(formed); c++ {
			if formed[c].formedAt < formed[c-1].formedAt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigureOverlayGrowsWithMembers(t *testing.T) {
	net := newNetwork(randx.New(1), 400)
	members := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	small, large := members(20), members(400)
	var sumSmall, sumLarge time.Duration
	for i := 0; i < 20; i++ {
		sumSmall += net.configureOverlay(small)
		sumLarge += net.configureOverlay(large)
	}
	if sumSmall <= 0 || sumLarge <= sumSmall {
		t.Fatalf("overlay configuration did not grow with membership: %v vs %v", sumSmall, sumLarge)
	}
}

// TestMaxFaulty checks the PBFT fault bound that validation enforces:
// a committee of n replicas tolerates ⌊(n−1)/3⌋ faulty ones and no more.
// Sizes below 4 are refused outright (TestNewPipelineValidation).
func TestMaxFaulty(t *testing.T) {
	tests := []struct{ n, want int }{
		{4, 1}, {5, 1}, {6, 1}, {7, 2}, {9, 2}, {10, 3}, {13, 4}, {16, 5}, {100, 33},
	}
	for _, tt := range tests {
		cfg := Config{Committees: 1, CommitteeSize: tt.n, FaultyPerCommittee: tt.want}
		if _, err := cfg.withDefaults(); err != nil {
			t.Fatalf("%d replicas, %d faulty: %v", tt.n, tt.want, err)
		}
		cfg.FaultyPerCommittee++
		if _, err := cfg.withDefaults(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%d replicas, %d faulty: err = %v, want ErrBadConfig", tt.n, tt.want+1, err)
		}
	}
}

// meanConsensus is the mean of rounds consensus draws for a committee of
// replicas with faulty silent members at step mean step.
func meanConsensus(rng *randx.RNG, replicas, faulty int, step time.Duration, rounds int) float64 {
	var sum float64
	for i := 0; i < rounds; i++ {
		sum += consensusLatency(rng, replicas, faulty, step).Seconds()
	}
	return sum / float64(rounds)
}

func TestCalibrateMeanStepHitsPaperSetting(t *testing.T) {
	// Calibration makes the expected three-phase total the paper's 54.5 s
	// consensus-latency expectation for any (n, f).
	rng := randx.New(2)
	step := calibrateMeanStep(rng, 16, 5)
	if mean := meanConsensus(rng, 16, 5, step, 4000); math.Abs(mean-54.5) > 3 {
		t.Fatalf("calibrated mean consensus latency %.1f s, want ~54.5", mean)
	}
}

func TestFaultyReplicasSlowConsensus(t *testing.T) {
	// With faulty (silent) replicas, the quorum digs deeper into the
	// latency tail, so mean latency must increase.
	none := meanConsensus(randx.New(3), 13, 0, time.Second, 2000)
	most := meanConsensus(randx.New(3), 13, 4, time.Second, 2000)
	if most <= none {
		t.Fatalf("faulty replicas did not slow consensus: f=0 %.2f s, f=4 %.2f s", none, most)
	}
}

func TestMeanStepScalesTotal(t *testing.T) {
	fast := meanConsensus(randx.New(8), 10, 0, time.Second, 500)
	slow := meanConsensus(randx.New(8), 10, 0, 10*time.Second, 500)
	if ratio := slow / fast; math.Abs(ratio-10) > 1.5 {
		t.Fatalf("total latency should scale with the step mean: ratio %.2f", ratio)
	}
}

// TestSafetyBoundProperty checks that for every committee validation
// admits — n ≥ 4 and f ≤ ⌊(n−1)/3⌋ — the n−f correct replicas hold a
// 2f+1 quorum, so every phase completes with a positive latency.
func TestSafetyBoundProperty(t *testing.T) {
	f := func(rawN, rawF uint8, seed int64) bool {
		n := int(rawN)%60 + 4
		fl := int(rawF) % ((n-1)/3 + 1)
		if n-fl < 2*fl+1 {
			return false
		}
		return consensusLatency(randx.New(seed), n, fl, time.Second) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
