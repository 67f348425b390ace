package txgen

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mvcom/internal/randx"
	"mvcom/internal/stats"
)

func TestGenerateDefaultShape(t *testing.T) {
	tr := Generate(randx.New(1), Config{})
	if len(tr.Blocks) != DefaultBlocks {
		t.Fatalf("blocks %d, want %d", len(tr.Blocks), DefaultBlocks)
	}
	for i, b := range tr.Blocks {
		if b.BlockID != i {
			t.Fatalf("blockID %d at index %d", b.BlockID, i)
		}
		if b.Txs < DefaultMinTxs || b.Txs > DefaultMaxTxs {
			t.Fatalf("txs %d out of clamp range", b.Txs)
		}
		if i > 0 && b.BTime <= tr.Blocks[i-1].BTime {
			t.Fatalf("non-increasing btime at %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(randx.New(99), Config{})
	b := Generate(randx.New(99), Config{})
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("same seed diverged at block %d", i)
		}
	}
	c := Generate(randx.New(100), Config{})
	same := 0
	for i := range a.Blocks {
		if a.Blocks[i].Txs == c.Blocks[i].Txs {
			same++
		}
	}
	if same == len(a.Blocks) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateMatchesTargetStatistics(t *testing.T) {
	tr := Generate(randx.New(7), Config{Blocks: 20000})
	mean := tr.MeanTxs()
	// Clamping skews the lognormal mean slightly; accept ±6%.
	if math.Abs(mean-DefaultMeanTxs) > 0.06*DefaultMeanTxs {
		t.Fatalf("mean TXs per block %.1f, want ~%.0f", mean, DefaultMeanTxs)
	}
	// Inter-block spacing ~Exp(600 s).
	var gaps []float64
	for i := 1; i < len(tr.Blocks); i++ {
		gaps = append(gaps, (tr.Blocks[i].BTime - tr.Blocks[i-1].BTime).Seconds())
	}
	s, err := stats.Summarize(gaps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-600) > 15 {
		t.Fatalf("mean block spacing %.1f s, want ~600", s.Mean)
	}
	// Exponential: stddev ≈ mean.
	if math.Abs(s.Stddev-600) > 30 {
		t.Fatalf("spacing stddev %.1f s, want ~600", s.Stddev)
	}
}

func TestGenerateCustomConfig(t *testing.T) {
	tr := Generate(randx.New(3), Config{
		Blocks:  50,
		MeanTxs: 100,
		Sigma:   0.1,
		MinTxs:  10,
		MaxTxs:  500,
	})
	if len(tr.Blocks) != 50 {
		t.Fatalf("blocks %d", len(tr.Blocks))
	}
	for _, b := range tr.Blocks {
		if b.Txs < 10 || b.Txs > 500 {
			t.Fatalf("txs %d out of configured range", b.Txs)
		}
	}
}

func TestIntoShardsPartition(t *testing.T) {
	tr := Generate(randx.New(5), Config{})
	shards, err := tr.IntoShards(randx.New(1), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 50 {
		t.Fatalf("shards %d", len(shards))
	}
	// Every block appears exactly once.
	seen := make(map[int]bool, len(tr.Blocks))
	totalTxs := 0
	for _, s := range shards {
		sum := 0
		for _, bid := range s.BlockIDs {
			if seen[bid] {
				t.Fatalf("block %d assigned twice", bid)
			}
			seen[bid] = true
			sum += tr.Blocks[bid].Txs
		}
		if sum != s.TxTotal {
			t.Fatalf("shard %d TxTotal %d, blocks sum %d", s.Committee, s.TxTotal, sum)
		}
		totalTxs += s.TxTotal
	}
	if len(seen) != len(tr.Blocks) {
		t.Fatalf("only %d of %d blocks assigned", len(seen), len(tr.Blocks))
	}
	if totalTxs != tr.TotalTxs() {
		t.Fatalf("shard TXs %d != trace TXs %d", totalTxs, tr.TotalTxs())
	}
}

func TestIntoShardsBalanced(t *testing.T) {
	// Round-robin assignment keeps shard block counts within one of each
	// other.
	tr := Generate(randx.New(6), Config{})
	shards, err := tr.IntoShards(randx.New(2), 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(shards))
	for i, s := range shards {
		counts[i] = len(s.BlockIDs)
	}
	sort.Ints(counts)
	if counts[len(counts)-1]-counts[0] > 1 {
		t.Fatalf("unbalanced shard block counts %v", counts)
	}
}

func TestIntoShardsErrors(t *testing.T) {
	tr := Generate(randx.New(1), Config{})
	if _, err := tr.IntoShards(randx.New(1), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	empty := &Trace{}
	if _, err := empty.IntoShards(randx.New(1), 3); err != ErrNoBlocks {
		t.Fatalf("empty trace: %v", err)
	}
}

func TestIntoShardsMoreShardsThanBlocks(t *testing.T) {
	tr := Generate(randx.New(1), Config{Blocks: 3})
	shards, err := tr.IntoShards(randx.New(1), 10)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, s := range shards {
		if len(s.BlockIDs) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Fatalf("nonEmpty %d, want 3", nonEmpty)
	}
}

func TestIntoShardsPartitionProperty(t *testing.T) {
	f := func(seed int64, rawN uint8, rawBlocks uint8) bool {
		n := int(rawN)%20 + 1
		nBlocks := int(rawBlocks)%60 + 1
		tr := Generate(randx.New(seed), Config{Blocks: nBlocks})
		shards, err := tr.IntoShards(randx.New(seed+1), n)
		if err != nil {
			return false
		}
		total := 0
		for _, s := range shards {
			total += s.TxTotal
		}
		return total == tr.TotalTxs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShardSizes(t *testing.T) {
	got := ShardSizes([]Shard{{TxTotal: 5}, {TxTotal: 9}})
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("sizes %v", got)
	}
}

func TestTransactionsMaterialization(t *testing.T) {
	tr := Generate(randx.New(1), Config{Blocks: 6, MeanTxs: 30, MinTxs: 5, MaxTxs: 100})
	shards, err := tr.IntoShards(randx.New(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(3)
	ids := make(map[uint64]bool)
	for _, s := range shards {
		txs := tr.Transactions(s, rng)
		if len(txs) != s.TxTotal {
			t.Fatalf("shard %d: %d txs, want %d", s.Committee, len(txs), s.TxTotal)
		}
		for _, tx := range txs {
			if ids[tx.ID] {
				t.Fatalf("duplicate tx ID %d across shards", tx.ID)
			}
			ids[tx.ID] = true
			if tx.Amount == 0 {
				t.Fatal("zero-amount transaction")
			}
		}
	}
}

func TestTransactionsSkipsBadBlockIDs(t *testing.T) {
	tr := Generate(randx.New(1), Config{Blocks: 2, MeanTxs: 10, MinTxs: 2, MaxTxs: 20})
	s := Shard{Committee: 0, BlockIDs: []int{0, 99, -1}, TxTotal: tr.Blocks[0].Txs}
	txs := tr.Transactions(s, randx.New(2))
	if len(txs) != tr.Blocks[0].Txs {
		t.Fatalf("got %d txs, want %d", len(txs), tr.Blocks[0].Txs)
	}
}

func TestTotalAndMeanTxsEmpty(t *testing.T) {
	empty := &Trace{}
	if empty.TotalTxs() != 0 || empty.MeanTxs() != 0 {
		t.Fatal("empty trace totals should be zero")
	}
}

func TestTransactionsZipfAccounts(t *testing.T) {
	tr := Generate(randx.New(1), Config{Blocks: 20, MeanTxs: 800, MinTxs: 400, MaxTxs: 1500})
	shards, err := tr.IntoShards(randx.New(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	txs := tr.Transactions(shards[0], randx.New(3))
	counts := make(map[uint64]int)
	for _, tx := range txs {
		counts[tx.From]++
	}
	// Zipf skew: the hottest account must appear many times while most
	// accounts appear once.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 10 {
		t.Fatalf("no hot account: max frequency %d over %d txs", max, len(txs))
	}
}
