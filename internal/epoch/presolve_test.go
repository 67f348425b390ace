package epoch

import (
	"testing"

	"mvcom/internal/baseline"
	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/obs"
	"mvcom/internal/randx"
)

// identityLive is the Result an instance of n shards gets from a
// pipeline where every report is live.
func identityLive(n int) *Result {
	res := &Result{}
	for i := 0; i < n; i++ {
		res.Live = append(res.Live, i)
	}
	return res
}

// TestPresolveMatchesBruteForce is the exactness property of DESIGN
// §5k: on random instances of up to 14 shards at Nmin 0 or 1, whenever
// presolve takes shards out, the exact optimum of the reduced instance
// equals that of the full one. Sizes, latencies and α are small binary
// fractions, so every value and every sum is exact and the optima
// compare with ==.
func TestPresolveMatchesBruteForce(t *testing.T) {
	rng := randx.New(11)
	alphas := []float64{0.25, 0.5, 1, 2}
	fired := 0
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(13)
		in := core.Instance{
			Sizes:     make([]int, n),
			Latencies: make([]float64, n),
			DDL:       30,
			Alpha:     alphas[rng.Intn(len(alphas))],
			Nmin:      rng.Intn(2),
		}
		arrived := 0
		for i := range in.Sizes {
			in.Sizes[i] = 1 + rng.Intn(40)
			in.Latencies[i] = float64(rng.Intn(36)) // above 30 is a straggler
			if in.Latencies[i] <= in.DDL {
				arrived += in.Sizes[i]
			}
		}
		in.Capacity = 1 + rng.Intn(arrived+1)
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		full := in.Clone()
		res := identityLive(n)
		reduced := presolve(in, res)
		if len(res.Presolved) == 0 {
			continue
		}
		fired++
		if !full.NegativeDropExact() {
			t.Fatalf("trial %d: presolve fired outside the rule", trial)
		}
		if reduced.DDL != full.DDL || len(res.Live)+len(res.Presolved) != n {
			t.Fatalf("trial %d: ddl %v/%v, live %d + presolved %d != %d",
				trial, reduced.DDL, full.DDL, len(res.Live), len(res.Presolved), n)
		}
		for li, ri := range res.Live {
			if reduced.Sizes[li] != full.Sizes[ri] || reduced.Latencies[li] != full.Latencies[ri] {
				t.Fatalf("trial %d: reduced row %d is not full row %d", trial, li, ri)
			}
			if reduced.Latencies[li] <= reduced.DDL && reduced.Value(li) < 0 {
				t.Fatalf("trial %d: arrived negative shard %d kept", trial, ri)
			}
		}
		want, _, err := baseline.BruteForce{}.Solve(full)
		if err != nil {
			t.Fatalf("trial %d: full: %v", trial, err)
		}
		got, _, err := baseline.BruteForce{}.Solve(reduced)
		if err != nil {
			t.Fatalf("trial %d: reduced: %v", trial, err)
		}
		if got.Utility != want.Utility {
			t.Fatalf("trial %d (nmin %d): reduced optimum %v, full optimum %v",
				trial, in.Nmin, got.Utility, want.Utility)
		}
	}
	if fired < 100 {
		t.Fatalf("presolve fired on %d of 600 instances; the property is barely exercised", fired)
	}
}

// TestPresolveNotAtNmin2 pins why the rule stops at Nmin 1. With
// capacity 10, sizes 9, 1, 5, 5 and values +100, −1, +1, +1, the
// optimum at Nmin 2 is {9, 1}: it holds the negative shard, and without
// that shard the best block is {5, 5}. Presolve must leave this instance
// alone; at Nmin 1 the same drop is exact.
func TestPresolveNotAtNmin2(t *testing.T) {
	in := core.Instance{
		Sizes:     []int{9, 1, 5, 5},
		Latencies: []float64{20, 79, 1, 1}, // ages 80, 21, 99, 99
		DDL:       100,
		Alpha:     20,
		Capacity:  10,
		Nmin:      2,
	}
	for i, want := range []float64{100, -1, 1, 1} {
		if v := in.Value(i); v != want {
			t.Fatalf("shard %d value %v, want %v", i, v, want)
		}
	}
	opt, _, err := baseline.BruteForce{}.Solve(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.Indices(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Nmin 2 optimum %v (U %v), want [0 1]", got, opt.Utility)
	}
	if in.NegativeDropExact() {
		t.Fatal("NegativeDropExact holds at Nmin 2")
	}
	res := identityLive(4)
	if reduced := presolve(in.Clone(), res); len(res.Presolved) != 0 || reduced.NumShards() != 4 {
		t.Fatalf("presolve fired at Nmin 2: presolved %v", res.Presolved)
	}

	in.Nmin = 1
	res = identityLive(4)
	reduced := presolve(in.Clone(), res)
	if len(res.Presolved) != 1 || res.Presolved[0] != 1 {
		t.Fatalf("Nmin 1: presolved %v, want [1]", res.Presolved)
	}
	full, _, err := baseline.BruteForce{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	red, _, err := baseline.BruteForce{}.Solve(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if full.Utility != 100 || red.Utility != 100 {
		t.Fatalf("Nmin 1 optima: full %v, reduced %v, want 100", full.Utility, red.Utility)
	}
}

// TestPresolveKeepsAlg1BelowBlock: when the arrived volume fits the
// block, Alg. 1 line 1 permits every arrived shard whatever its value,
// so presolve must not fire and negative shards are still permitted.
func TestPresolveKeepsAlg1BelowBlock(t *testing.T) {
	p, err := NewPipeline(fastConfig(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunEpoch(seScheduler(5), 0.05, 10*p.Trace().TotalTxs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Presolved) != 0 {
		t.Fatalf("presolve fired below the block: %v", res.Presolved)
	}
	in := &res.Instance
	negative := 0
	for li := range res.Live {
		if in.Latencies[li] > in.DDL {
			continue
		}
		if !res.Solution.Selected[li] {
			t.Fatalf("arrived shard %d (value %v) refused below the block", li, in.Value(li))
		}
		if in.Value(li) < 0 {
			negative++
		}
	}
	if negative == 0 {
		t.Fatal("no negative arrived shard: the fixture does not exercise Alg. 1 line 1")
	}
}

// TestPresolveRefusesInReportOrder runs epochs where presolve fires and
// checks what surrounds it: presolved shards are arrived and negative,
// live + presolved covers every non-failed non-empty report, refusals
// defer in report order with presolved shards in their places, the
// journal's presolved rows verify, and the counter counts them.
func TestPresolveRefusesInReportOrder(t *testing.T) {
	cfg := fastConfig(8, 5)
	cfg.Obs = obs.NewEpochObserver(obs.NewRegistryWithTrace(obs.DefaultTraceCapacity))
	j := openTestJournal(t, nil)
	cfg.DecisionLog = j
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.RunEpochs(4, seScheduler(5), 0.05, p.Trace().TotalTxs()/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	presolved := 0
	for _, res := range results {
		presolved += len(res.Presolved)
		in := &res.Instance
		state := map[int]string{}
		for li, ri := range res.Live {
			state[ri] = "refused"
			if res.Solution.Selected[li] {
				state[ri] = "selected"
			}
		}
		for _, ri := range res.Presolved {
			rep := res.Reports[ri]
			lat := rep.TwoPhase.Seconds()
			if lat > in.DDL || in.Alpha*float64(rep.TxCount)-(in.DDL-lat) >= 0 {
				t.Fatalf("epoch %d: presolved report %d is not arrived and negative", res.Epoch, ri)
			}
			state[ri] = "refused"
		}
		var want []int
		for ri, rep := range res.Reports {
			if rep.Failed || rep.TxCount == 0 {
				if _, ok := state[ri]; ok {
					t.Fatalf("epoch %d: report %d is live but failed or empty", res.Epoch, ri)
				}
				continue
			}
			switch state[ri] {
			case "":
				t.Fatalf("epoch %d: report %d is in neither Live nor Presolved", res.Epoch, ri)
			case "refused":
				want = append(want, rep.Committee)
			}
		}
		var got []int
		for _, d := range res.Deferred {
			got = append(got, d.Committee)
		}
		if len(got) != len(want) {
			t.Fatalf("epoch %d: deferred %v, want %v", res.Epoch, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: deferred %v, want report order %v", res.Epoch, got, want)
			}
		}
	}
	if presolved == 0 {
		t.Fatal("presolve never fired: the fixture does not exercise it")
	}
	if c := cfg.Obs.PresolvedShards.Value(); c != int64(presolved) {
		t.Fatalf("presolved counter %d, want %d", c, presolved)
	}

	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := decisionlog.ReadDir(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for i, e := range entries {
		rows += len(e.Presolved)
		if len(e.Presolved) != len(results[i].Presolved) || len(e.Shards) != len(results[i].Live) {
			t.Fatalf("epoch %d: journal has %d shards + %d presolved, result %d + %d",
				e.Epoch, len(e.Shards), len(e.Presolved), len(results[i].Live), len(results[i].Presolved))
		}
	}
	if st := decisionlog.VerifyAll(entries); st.Replayed != len(entries) {
		t.Fatalf("verify: %+v", st)
	}
	if rows != presolved {
		t.Fatalf("journal holds %d presolved rows, results %d", rows, presolved)
	}
}
