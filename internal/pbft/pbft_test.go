package pbft

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"mvcom/internal/randx"
)

func TestRunBasic(t *testing.T) {
	res, err := Run(randx.New(1), Config{Replicas: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases %d", len(res.Phases))
	}
	var sum time.Duration
	order := []Phase{PrePrepare, Prepare, Commit}
	for i, ph := range res.Phases {
		if ph.Phase != order[i] {
			t.Fatalf("phase %d is %v", i, ph.Phase)
		}
		if ph.Latency <= 0 {
			t.Fatalf("phase %v latency %v", ph.Phase, ph.Latency)
		}
		if ph.Quorum != 1 { // f=0 → quorum 1
			t.Fatalf("quorum %d with f=0", ph.Quorum)
		}
		sum += ph.Latency
	}
	if res.Total != sum {
		t.Fatalf("total %v != phase sum %v", res.Total, sum)
	}
	if res.ViewChanges != 0 {
		t.Fatalf("unexpected view changes %d", res.ViewChanges)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(randx.New(1), Config{Replicas: 3}); err != ErrTooSmall {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run(randx.New(1), Config{Replicas: 10, Faulty: 4}); !errors.Is(err, ErrTooFaulty) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run(randx.New(1), Config{Replicas: 10, Faulty: -1}); !errors.Is(err, ErrTooFaulty) {
		t.Fatalf("err = %v", err)
	}
}

func TestCalibrateMeanStepHitsPaperSetting(t *testing.T) {
	// Calibration should make the expected three-phase total match the
	// paper's 54.5 s consensus-latency expectation for any (n, f).
	rng := randx.New(2)
	cfg := Config{Replicas: 16, Faulty: 5}
	step, err := CalibrateMeanStep(rng, cfg, DefaultMeanTotal, 3000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MeanStep = step
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		res, err := Run(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Total.Seconds()
	}
	mean := sum / n
	if math.Abs(mean-54.5) > 3 {
		t.Fatalf("calibrated mean consensus latency %.1f s, want ~54.5", mean)
	}
}

func TestCalibrateMeanStepErrors(t *testing.T) {
	if _, err := CalibrateMeanStep(randx.New(1), Config{Replicas: 10}, 0, 10); err == nil {
		t.Fatal("non-positive target accepted")
	}
	if _, err := CalibrateMeanStep(randx.New(1), Config{Replicas: 2}, time.Second, 10); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFaultyReplicasSlowConsensus(t *testing.T) {
	// With faulty (silent) replicas, the quorum digs deeper into the
	// latency tail, so mean latency must increase.
	meanLatency := func(f int) float64 {
		rng := randx.New(3)
		var sum float64
		const n = 2000
		for i := 0; i < n; i++ {
			res, err := Run(rng, Config{Replicas: 13, Faulty: f})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Total.Seconds()
		}
		return sum / n
	}
	none := meanLatency(0)
	max := meanLatency(4)
	if max <= none {
		t.Fatalf("faulty replicas did not slow consensus: f=0 %.2f s, f=4 %.2f s", none, max)
	}
}

func TestPrimaryFaultyTriggersViewChange(t *testing.T) {
	res, err := Run(randx.New(4), Config{Replicas: 10, Faulty: 3, PrimaryFaulty: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewChanges != 1 {
		t.Fatalf("view changes %d", res.ViewChanges)
	}
	var phaseSum time.Duration
	for _, ph := range res.Phases {
		phaseSum += ph.Latency
	}
	if res.Total <= phaseSum {
		t.Fatal("view change added no latency")
	}
}

func TestPrimaryFaultyWithoutFaultyReplicasIgnored(t *testing.T) {
	res, err := Run(randx.New(5), Config{Replicas: 10, Faulty: 0, PrimaryFaulty: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewChanges != 0 {
		t.Fatal("view change with zero faulty replicas")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(randx.New(6), Config{Replicas: 10, Faulty: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(randx.New(6), Config{Replicas: 10, Faulty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatalf("same seed diverged: %v vs %v", a.Total, b.Total)
	}
}

func TestRunLatencyVariance(t *testing.T) {
	// Consecutive runs must differ — the heterogeneous consensus latency
	// is the whole premise of the scheduling problem.
	rng := randx.New(7)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 50; i++ {
		res, err := Run(rng, Config{Replicas: 10, Faulty: 2})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Total] = true
	}
	if len(seen) < 45 {
		t.Fatalf("latency not variable: %d distinct of 50", len(seen))
	}
}

func TestMaxFaulty(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {3, 0}, {4, 1}, {7, 2}, {10, 3}, {13, 4}, {100, 33},
	}
	for _, tt := range tests {
		if got := MaxFaulty(tt.n); got != tt.want {
			t.Fatalf("MaxFaulty(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestSafetyBoundProperty(t *testing.T) {
	// For every valid (n, f): quorum 2f+1 correct replicas always exist
	// (n - f >= 2f + 1), so consensus must succeed.
	f := func(rawN, rawF uint8, seed int64) bool {
		n := int(rawN)%60 + 4
		fmax := MaxFaulty(n)
		fl := 0
		if fmax > 0 {
			fl = int(rawF) % (fmax + 1)
		}
		if n-fl < 2*fl+1 {
			return false // would violate PBFT safety precondition
		}
		res, err := Run(randx.New(seed), Config{Replicas: n, Faulty: fl})
		if err != nil {
			return false
		}
		return res.Total > 0 && len(res.Phases) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseString(t *testing.T) {
	if PrePrepare.String() != "pre-prepare" || Prepare.String() != "prepare" || Commit.String() != "commit" {
		t.Fatal("phase names wrong")
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase should still print")
	}
}

func TestMeanStepScalesTotal(t *testing.T) {
	mean := func(step time.Duration) float64 {
		rng := randx.New(8)
		var sum float64
		for i := 0; i < 500; i++ {
			res, err := Run(rng, Config{Replicas: 10, MeanStep: step})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Total.Seconds()
		}
		return sum / 500
	}
	fast := mean(1 * time.Second)
	slow := mean(10 * time.Second)
	if ratio := slow / fast; math.Abs(ratio-10) > 1.5 {
		t.Fatalf("total latency should scale with MeanStep: ratio %.2f", ratio)
	}
}
