// Package chain implements the blockchain data structures of the sharded
// ledger: transactions, shard blocks produced by member committees, the
// final blocks assembled by the final committee, and the root chain they
// extend. Hashing uses SHA-256. A shard block is a header: the member
// committee's commitment to its transactions and their count, which is
// all the final committee and the scheduler consume.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"
)

// Errors reported by chain verification.
var (
	ErrEmptyShard    = errors.New("chain: shard has no transactions")
	ErrBadParent     = errors.New("chain: parent hash mismatch")
	ErrBadHeight     = errors.New("chain: non-contiguous height")
	ErrBadMerkleRoot = errors.New("chain: zero merkle root")
	ErrBadHash       = errors.New("chain: stored hash mismatch")
)

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// String renders the hash in hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short renders the first 8 hex characters, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is all zeroes.
func (h Hash) IsZero() bool { return h == Hash{} }

// Transaction is one ledger entry, as clients submit it to the serving
// plane and as txgen materializes a trace. The scheduler never inspects
// payloads.
type Transaction struct {
	ID      uint64
	From    uint64
	To      uint64
	Amount  uint64
	Created time.Duration // virtual time at which the TX entered the pool
}

// Hash returns the transaction digest.
func (tx Transaction) Hash() Hash {
	var buf [40]byte
	binary.BigEndian.PutUint64(buf[0:8], tx.ID)
	binary.BigEndian.PutUint64(buf[8:16], tx.From)
	binary.BigEndian.PutUint64(buf[16:24], tx.To)
	binary.BigEndian.PutUint64(buf[24:32], tx.Amount)
	binary.BigEndian.PutUint64(buf[32:40], uint64(tx.Created))
	return sha256.Sum256(buf[:])
}

// ShardBlock is the header of the block a member committee agrees on
// through its intra-committee consensus: the commitment to its disjoint
// set of transactions, their count, and the committee's identity and
// epoch. The transactions themselves never reach the final committee.
type ShardBlock struct {
	Committee  int           // member-committee index
	Epoch      int           // epoch number j
	MerkleRoot Hash          // commitment over the shard's transactions
	TxCount    int           // s_i in the paper
	Latency    time.Duration // two-phase latency l_i
}

// NewShardHeader assembles a shard block from the committee's Merkle
// commitment and TX count. The root must be non-zero and txCount
// positive; it returns ErrEmptyShard otherwise.
func NewShardHeader(committee, epoch int, latency time.Duration, root Hash, txCount int) (ShardBlock, error) {
	if txCount <= 0 || root.IsZero() {
		return ShardBlock{}, ErrEmptyShard
	}
	return ShardBlock{
		Committee:  committee,
		Epoch:      epoch,
		MerkleRoot: root,
		TxCount:    txCount,
		Latency:    latency,
	}, nil
}

// Verify checks what NewShardHeader requires: a positive TX count and a
// non-zero commitment.
func (b ShardBlock) Verify() error {
	if b.TxCount <= 0 {
		return ErrEmptyShard
	}
	if b.MerkleRoot.IsZero() {
		return ErrBadMerkleRoot
	}
	return nil
}

// Hash returns the shard-block digest (header fields + Merkle root).
func (b ShardBlock) Hash() Hash {
	var buf [8*3 + sha256.Size]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(b.Committee))
	binary.BigEndian.PutUint64(buf[8:16], uint64(b.Epoch))
	binary.BigEndian.PutUint64(buf[16:24], uint64(b.TxCount))
	copy(buf[24:], b.MerkleRoot[:])
	return sha256.Sum256(buf[:])
}

// FinalBlock is the global block the final committee appends to the root
// chain in one epoch: the set of permitted shard blocks plus the epoch
// randomness used to seed the next epoch's committee formation.
type FinalBlock struct {
	Height     int
	Epoch      int
	Parent     Hash
	ShardRoots []Hash // hashes of the permitted shard blocks, in order
	TxTotal    int    // Σ x_i s_i over permitted shards
	Randomness Hash   // epoch randomness refresh (stage 5)
	Timestamp  time.Duration
	hash       Hash
}

// Hash returns the final-block digest, computing and caching it on first
// use.
func (fb *FinalBlock) Hash() Hash {
	if fb.hash.IsZero() {
		fb.hash = fb.computeHash()
	}
	return fb.hash
}

func (fb *FinalBlock) computeHash() Hash {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(fb.Height))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(fb.Epoch))
	h.Write(buf[:])
	h.Write(fb.Parent[:])
	for _, r := range fb.ShardRoots {
		h.Write(r[:])
	}
	binary.BigEndian.PutUint64(buf[:], uint64(fb.TxTotal))
	h.Write(buf[:])
	h.Write(fb.Randomness[:])
	binary.BigEndian.PutUint64(buf[:], uint64(fb.Timestamp))
	h.Write(buf[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// tailLen is how many recent final blocks the root chain keeps: enough
// for Verify to check a window of links, while memory stays flat however
// many epochs a serving plane runs.
const tailLen = 64

// RootChain is the global chain of final blocks. It keeps the tip and a
// fixed tail of recent blocks, a height counter and a running
// transaction total; older blocks are dropped.
type RootChain struct {
	tail     [tailLen]*FinalBlock // block h lives at tail[h%tailLen]
	height   int
	totalTxs int
}

// NewRootChain returns an empty root chain.
func NewRootChain() *RootChain { return &RootChain{} }

// Height returns the number of final blocks appended so far.
func (c *RootChain) Height() int { return c.height }

// Tip returns the latest final block, or nil for an empty chain.
func (c *RootChain) Tip() *FinalBlock {
	if c.height == 0 {
		return nil
	}
	return c.tail[(c.height-1)%tailLen]
}

// TipHash returns the hash of the latest block, or the zero hash for an
// empty chain (the genesis parent).
func (c *RootChain) TipHash() Hash {
	if tip := c.Tip(); tip != nil {
		return tip.Hash()
	}
	return Hash{}
}

// TotalTxs returns the total transactions committed across all final
// blocks, the dropped ones included.
func (c *RootChain) TotalTxs() int { return c.totalTxs }

// Append assembles a final block from the permitted shard blocks and
// appends it to the chain. Shards are verified first; the epoch randomness
// is derived from the shard roots and the parent hash (the paper's stage 5
// randomness refresh). It returns the appended block.
func (c *RootChain) Append(epoch int, at time.Duration, shards []ShardBlock) (*FinalBlock, error) {
	roots := make([]Hash, 0, len(shards))
	total := 0
	for _, s := range shards {
		if err := s.Verify(); err != nil {
			return nil, fmt.Errorf("shard from committee %d: %w", s.Committee, err)
		}
		roots = append(roots, s.Hash())
		total += s.TxCount
	}
	fb := &FinalBlock{
		Height:     c.height,
		Epoch:      epoch,
		Parent:     c.TipHash(),
		ShardRoots: roots,
		TxTotal:    total,
		Timestamp:  at,
	}
	fb.Randomness = deriveRandomness(fb.Parent, roots, epoch)
	c.tail[c.height%tailLen] = fb
	c.height++
	c.totalTxs += total
	return fb, nil
}

// Verify checks heights, parent links and stored hashes over the blocks
// the chain holds; the oldest held block's parent is checked only when
// it is the genesis block.
func (c *RootChain) Verify() error {
	first := max(c.height-tailLen, 0)
	parent := Hash{}
	for h := first; h < c.height; h++ {
		b := c.tail[h%tailLen]
		if b.Height != h {
			return fmt.Errorf("block %d: %w", h, ErrBadHeight)
		}
		if (h > first || h == 0) && b.Parent != parent {
			return fmt.Errorf("block %d: %w", h, ErrBadParent)
		}
		if b.Hash() != b.computeHash() {
			return fmt.Errorf("block %d: %w", h, ErrBadHash)
		}
		parent = b.Hash()
	}
	return nil
}

// deriveRandomness produces the stage-5 epoch randomness: a hash over the
// parent link, the shard commitments, and the epoch number.
func deriveRandomness(parent Hash, roots []Hash, epoch int) Hash {
	h := sha256.New()
	h.Write([]byte("mvcom/epoch-randomness"))
	h.Write(parent[:])
	for _, r := range roots {
		h.Write(r[:])
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(epoch))
	h.Write(buf[:])
	var out Hash
	h.Sum(out[:0])
	return out
}
