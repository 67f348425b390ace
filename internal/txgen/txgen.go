// Package txgen synthesizes the blockchain-sharding transaction dataset
// used by the MVCom evaluation.
//
// The paper samples 1,378 blocks from the first 1.5 million Bitcoin
// transactions of January 2016; each record carries blockID, bhash (block
// hash), btime (creation timestamp), and txs (number of transactions).
// That trace is not redistributable, so this package generates a synthetic
// trace that keeps the blockID, btime and txs columns (nothing reads a
// block hash, so bhash is left out) with the same first- and second-order
// statistics: per-block transaction counts are lognormal with mean ≈ 1,850
// (the Jan-2016 Bitcoin average) clamped to [200, 12,000], and inter-block
// times are exponential with a 600-second mean. The scheduler only consumes
// (shard size, latency) pairs, so matching these statistics preserves the
// behaviour the paper's experiments exercise.
//
// The package also groups blocks into per-committee shards the way the
// evaluation does: "for each epoch, those blocks are divided into a
// different number of groups to simulate the transaction shards generated
// by member committees; in each shard, the total number of TXs is
// accumulated together from all blocks included".
package txgen

import (
	"errors"
	"fmt"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/randx"
)

// Default trace parameters: the Jan-2016 Bitcoin snapshot statistics the
// paper's dataset is sampled from.
const (
	DefaultBlocks       = 1378   // blocks sampled by the paper
	DefaultMeanTxs      = 1850.0 // mean TXs per block, Jan 2016
	DefaultSigma        = 0.55   // lognormal spread of TXs per block
	DefaultMinTxs       = 200
	DefaultMaxTxs       = 12000
	DefaultBlockSpacing = 600 * time.Second // Bitcoin target spacing
)

// ErrNoBlocks is returned when an operation needs a non-empty trace.
var ErrNoBlocks = errors.New("txgen: trace has no blocks")

// Block is one record of the trace, mirroring the paper's dataset schema.
type Block struct {
	BlockID int           // blockID
	BTime   time.Duration // btime, virtual time since trace start
	Txs     int           // txs, number of transactions in the block
}

// Config controls trace synthesis.
type Config struct {
	Blocks  int     // number of blocks; DefaultBlocks if <= 0
	MeanTxs float64 // mean TXs per block; DefaultMeanTxs if <= 0
	Sigma   float64 // lognormal spread; DefaultSigma if <= 0
	MinTxs  int     // lower clamp; DefaultMinTxs if <= 0
	MaxTxs  int     // upper clamp; DefaultMaxTxs if <= 0
}

func (c Config) withDefaults() Config {
	if c.Blocks <= 0 {
		c.Blocks = DefaultBlocks
	}
	if c.MeanTxs <= 0 {
		c.MeanTxs = DefaultMeanTxs
	}
	if c.Sigma <= 0 {
		c.Sigma = DefaultSigma
	}
	if c.MinTxs <= 0 {
		c.MinTxs = DefaultMinTxs
	}
	if c.MaxTxs <= 0 {
		c.MaxTxs = DefaultMaxTxs
	}
	return c
}

// Trace is a generated sequence of blocks.
type Trace struct {
	Blocks []Block
}

// Generate synthesizes a trace from cfg using the given RNG.
func Generate(rng *randx.RNG, cfg Config) *Trace {
	cfg = cfg.withDefaults()
	blocks := make([]Block, cfg.Blocks)
	var t time.Duration
	for i := range blocks {
		t += sDuration(rng.Exponential(DefaultBlockSpacing.Seconds()))
		txs := int(rng.LogNormalMeanSpread(cfg.MeanTxs, cfg.Sigma))
		if txs < cfg.MinTxs {
			txs = cfg.MinTxs
		}
		if txs > cfg.MaxTxs {
			txs = cfg.MaxTxs
		}
		blocks[i] = Block{BlockID: i, BTime: t, Txs: txs}
	}
	return &Trace{Blocks: blocks}
}

// TotalTxs returns the total number of transactions across all blocks.
func (tr *Trace) TotalTxs() int {
	total := 0
	for _, b := range tr.Blocks {
		total += b.Txs
	}
	return total
}

// MeanTxs returns the mean TXs per block, or 0 for an empty trace.
func (tr *Trace) MeanTxs() float64 {
	if len(tr.Blocks) == 0 {
		return 0
	}
	return float64(tr.TotalTxs()) / float64(len(tr.Blocks))
}

// Shard is the per-committee workload derived from the trace: the set of
// blocks a member committee's shard accumulates, with the total TX count
// s_i the scheduler consumes.
type Shard struct {
	Committee int
	BlockIDs  []int
	TxTotal   int
}

// IntoShards partitions the trace's blocks into n shards round-robin after
// a seeded shuffle, accumulating each shard's TX total — the paper's
// per-epoch grouping of blocks into member-committee shards. Every block
// lands in exactly one shard. It returns an error when n < 1 or the trace
// is empty.
func (tr *Trace) IntoShards(rng *randx.RNG, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("txgen: %d shards requested, need >= 1", n)
	}
	if len(tr.Blocks) == 0 {
		return nil, ErrNoBlocks
	}
	order := rng.Perm(len(tr.Blocks))
	shards := make([]Shard, n)
	for i := range shards {
		shards[i].Committee = i
	}
	for pos, bi := range order {
		s := &shards[pos%n]
		s.BlockIDs = append(s.BlockIDs, tr.Blocks[bi].BlockID)
		s.TxTotal += tr.Blocks[bi].Txs
	}
	return shards, nil
}

// ShardSizes extracts the s_i vector from a shard set.
func ShardSizes(shards []Shard) []int {
	out := make([]int, len(shards))
	for i, s := range shards {
		out[i] = s.TxTotal
	}
	return out
}

// Transactions materializes concrete chain.Transactions for a shard so the
// epoch pipeline can build verifiable shard blocks. IDs are made globally
// unique by offsetting with the committee index; creation times spread over
// the epoch. Account activity follows a Zipf law (a few hot accounts
// dominate, as in the real Bitcoin graph).
func (tr *Trace) Transactions(s Shard, rng *randx.RNG) []chain.Transaction {
	txs := make([]chain.Transaction, 0, s.TxTotal)
	base := uint64(s.Committee) << 40
	var id uint64
	zipf := rng.Zipf(1.3, 1_000_000)
	account := func() uint64 {
		if zipf == nil {
			return rng.Uint64() % 1_000_000
		}
		return zipf.Uint64()
	}
	for _, bid := range s.BlockIDs {
		if bid < 0 || bid >= len(tr.Blocks) {
			continue
		}
		b := tr.Blocks[bid]
		for k := 0; k < b.Txs; k++ {
			txs = append(txs, chain.Transaction{
				ID:      base + id,
				From:    account(),
				To:      account(),
				Amount:  uint64(rng.Intn(100_000)) + 1,
				Created: b.BTime,
			})
			id++
		}
	}
	return txs
}

func sDuration(secs float64) time.Duration {
	return time.Duration(secs * float64(time.Second))
}
