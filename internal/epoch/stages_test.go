package epoch

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mvcom/internal/obs"
	"mvcom/internal/randx"
	"mvcom/internal/txgen"
)

func TestElectSorted(t *testing.T) {
	solvers := elect(nil, randx.New(1), 100)
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
	solvers := elect(nil, randx.New(2), 40000)
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
	coms := formCommittees(nil, elect(nil, randx.New(3), 120), 5, 20)
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
	coms := formCommittees(nil, solvers, 2, 2)
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
		solvers := elect(nil, randx.New(seed), coms*seats+int(rawExtra)%16)
		solveAt := make(map[int]time.Duration, len(solvers))
		for _, s := range solvers {
			solveAt[s.node] = s.solveAt
		}
		seen := make(map[int]bool)
		for _, com := range formCommittees(nil, solvers, coms, seats) {
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
		formed := formCommittees(nil, elect(nil, randx.New(seed), coms*seats+int(rawExtra)%16), coms, seats)
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
	net := newNetwork(nil, randx.New(1), 400)
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
	mu := randx.LogNormalMu(step.Seconds(), pbftSigma)
	for i := 0; i < rounds; i++ {
		sum += consensusLatency(nil, rng, replicas, faulty, mu).Seconds()
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
		return consensusLatency(nil, randx.New(seed), n, fl, randx.LogNormalMu(1, pbftSigma)) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// referenceConsensusLatency is consensusLatency as first written:
// every message delay exponentiated, each phase's delays sorted, the
// (2f+1)-th smallest taken. consensusLatency must return the same
// Duration and leave rng at the same point.
func referenceConsensusLatency(rng *randx.RNG, replicas, faulty int, meanStep time.Duration) time.Duration {
	delays := make([]float64, replicas-faulty)
	var total time.Duration
	for phase := 0; phase < 3; phase++ {
		for i := range delays {
			delays[i] = rng.LogNormalMeanSpread(meanStep.Seconds(), 0.4)
		}
		sort.Float64s(delays)
		total += time.Duration(delays[2*faulty] * float64(time.Second))
	}
	return total
}

// TestConsensusLatencyMatchesReference checks that selecting among the
// normal exponents before exponentiating (exp is monotone) returns the
// delay the sort-based reference returns, for any admitted committee,
// step and seed, and consumes the same draws.
func TestConsensusLatencyMatchesReference(t *testing.T) {
	buf := make([]float64, 2*21+1) // reused across cases, stale contents and all
	f := func(rawN, rawF uint8, rawStep uint16, seed int64) bool {
		n := int(rawN)%61 + 4
		fl := int(rawF) % ((n-1)/3 + 1)
		step := 100*time.Millisecond + time.Duration(rawStep)*9900*time.Millisecond/math.MaxUint16
		got, want := randx.New(seed), randx.New(seed)
		mu := randx.LogNormalMu(step.Seconds(), pbftSigma)
		if a, b := consensusLatency(buf, got, n, fl, mu), referenceConsensusLatency(want, n, fl, step); a != b {
			t.Logf("n=%d f=%d step=%v seed=%d: %v, reference %v", n, fl, step, seed, a, b)
			return false
		}
		return got.Uint64() == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateMeanStepMatchesReference checks the calibration at the
// committee shapes in use against 400 reference pilot rounds.
func TestCalibrateMeanStepMatchesReference(t *testing.T) {
	for _, shape := range []struct{ replicas, faulty int }{{4, 0}, {8, 0}, {8, 2}, {16, 0}, {16, 5}} {
		for seed := int64(0); seed < 100; seed++ {
			ref := randx.New(seed)
			var sum float64
			for i := 0; i < 400; i++ {
				sum += referenceConsensusLatency(ref, shape.replicas, shape.faulty, time.Second).Seconds()
			}
			want := time.Duration(54.5 / (sum / 400) * float64(time.Second))
			if got := calibrateMeanStep(randx.New(seed), shape.replicas, shape.faulty); got != want {
				t.Fatalf("%d/%d seed %d: step %v, reference %v", shape.replicas, shape.faulty, seed, got, want)
			}
		}
	}
}

// rampSupply fills every fresh report with a count that varies with the
// epoch and the committee, so the block refuses some shards and
// deferrals carry into later epochs.
type rampSupply struct{}

func (rampSupply) Fill(epoch int, reports []CommitteeReport) {
	for i := range reports {
		reports[i].TxCount = 100 + (epoch*7+i*13)%900
	}
}

// supplyConfig is a Supply-fed pipeline of committees committees of 4,
// shaped like the serving plane's.
func supplyConfig(committees int) Config {
	return Config{
		Committees:    committees,
		CommitteeSize: 4,
		MaxDeferrals:  2,
		Trace:         txgen.Config{Blocks: committees * 3, MeanTxs: 1200},
		Seed:          1,
		Supply:        rampSupply{},
	}
}

// TestSupplyFedStreamsPinned pins every stage-1–3 draw of a Supply-fed
// pipeline at mvcom-serve's shape (8 committees) and at 64: a SHA-256
// over each report's latencies and arrival for 200 epochs. It fails if
// the Supply path stops consuming the skipped trace shuffle's seed draw,
// or if any stage's stream is seeded at another point of the sequence.
func TestSupplyFedStreamsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests hold amd64 draws; on %s Go may fuse multiply-adds, which changes the low-order bits", runtime.GOARCH)
	}
	for _, tc := range []struct {
		committees int
		want       string
	}{
		{8, "55a0c6063311601add8f414295e89232fa2e3a2f1738bd3451d54d90e482848d"},
		{64, "c99ca1fc3d0bad0dd55ab06a809f27d757f2ffe1456947dbd1276ed3a8824113"},
	} {
		p, err := NewPipeline(supplyConfig(tc.committees))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var rec [25]byte
		stream := &FixedStream{
			N:      200,
			Params: EpochParams{Alpha: 1.5, Capacity: tc.committees * 400, Nmin: 1},
			OnResult: func(res *Result) error {
				for _, r := range res.Reports {
					binary.LittleEndian.PutUint64(rec[0:], uint64(r.Formation))
					binary.LittleEndian.PutUint64(rec[8:], uint64(r.Consensus))
					binary.LittleEndian.PutUint64(rec[16:], uint64(r.TwoPhase))
					rec[24] = 0
					if r.Arrived {
						rec[24] = 1
					}
					h.Write(rec[:])
				}
				return nil
			},
		}
		if err := p.Serve(context.Background(), AcceptAll{}, stream); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%d committees: digest %s, want %s", tc.committees, got, tc.want)
		}
	}
}

// BenchmarkCalibrateMeanStep measures the PBFT calibration at the
// serving plane's committee of 4 replicas.
func BenchmarkCalibrateMeanStep(b *testing.B) {
	rng := randx.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		calibrateMeanStep(rng, 4, 0)
	}
}

// observedSupplyPipeline is supplyConfig's pipeline with telemetry on,
// as the serving plane runs it.
func observedSupplyPipeline(tb testing.TB, committees int) *Pipeline {
	cfg := supplyConfig(committees)
	cfg.Obs = obs.NewEpochObserver(obs.NewRegistryWithTrace(obs.DefaultTraceCapacity))
	p, err := NewPipeline(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkMemberStages measures stages 1–3 of a Supply-fed epoch with
// telemetry on, at the serving plane's 8 committees and at 64.
func BenchmarkMemberStages(b *testing.B) {
	for _, committees := range []int{8, 64} {
		b.Run(fmt.Sprintf("committees=%d", committees), func(b *testing.B) {
			p := observedSupplyPipeline(b, committees)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.memberStages(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMemberStagesAllocs gates stages 1–3 of a Supply-fed epoch at the
// serving plane's shape, with telemetry on: once the first epoch (the
// warm-up run of AllocsPerRun) has seeded the pipeline's generators and
// sized its buffers, the member stages allocate nothing.
func TestMemberStagesAllocs(t *testing.T) {
	p := observedSupplyPipeline(t, 8)
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := p.memberStages(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Supply-fed epoch's member stages made %.0f allocations, want 0", allocs)
	}
}

// quietSupply leaves every fresh shard empty: an idle serving plane.
type quietSupply struct{}

func (quietSupply) Fill(int, []CommitteeReport) {}

// TestQuietEpochAllocs gates an idle plane's epoch: Supply-fed, no
// transactions, telemetry on. Its five allocations are the four spans
// (epoch, consensus, collect, commit) and the empty block; the
// "collect:quiet-window" and "commit:empty-block" span details are
// constants, not joined per epoch.
func TestQuietEpochAllocs(t *testing.T) {
	cfg := supplyConfig(8)
	cfg.Supply = quietSupply{}
	cfg.Obs = obs.NewEpochObserver(obs.NewRegistryWithTrace(obs.DefaultTraceCapacity))
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		res, err := p.runEpoch(AcceptAll{}, 1.5, 3200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Live) != 0 {
			t.Fatalf("epoch %d: %d live shards, want a quiet epoch", res.Epoch, len(res.Live))
		}
	})
	if allocs > 5 {
		t.Fatalf("a quiet epoch made %.0f allocations, want at most 5", allocs)
	}
}
