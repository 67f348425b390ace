package chain

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func makeTxs(n int, base uint64) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = Transaction{
			ID:      base + uint64(i),
			From:    uint64(i) * 3,
			To:      uint64(i)*3 + 1,
			Amount:  uint64(i) * 100,
			Created: time.Duration(i) * time.Second,
		}
	}
	return txs
}

func TestTransactionHashDistinct(t *testing.T) {
	a := Transaction{ID: 1}.Hash()
	b := Transaction{ID: 2}.Hash()
	if a == b {
		t.Fatal("distinct transactions share a hash")
	}
	if a != (Transaction{ID: 1}).Hash() {
		t.Fatal("transaction hash not deterministic")
	}
}

func TestTransactionHashSensitiveToEveryField(t *testing.T) {
	base := Transaction{ID: 1, From: 2, To: 3, Amount: 4, Created: 5}
	variants := []Transaction{
		{ID: 9, From: 2, To: 3, Amount: 4, Created: 5},
		{ID: 1, From: 9, To: 3, Amount: 4, Created: 5},
		{ID: 1, From: 2, To: 9, Amount: 4, Created: 5},
		{ID: 1, From: 2, To: 3, Amount: 9, Created: 5},
		{ID: 1, From: 2, To: 3, Amount: 4, Created: 9},
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Fatalf("variant %d collides with base", i)
		}
	}
}

func TestNewShardBlock(t *testing.T) {
	txs := makeTxs(5, 0)
	b, err := NewShardBlock(3, 7, 800*time.Second, txs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Committee != 3 || b.Epoch != 7 || b.TxCount != 5 {
		t.Fatalf("block %+v", b)
	}
	if b.MerkleRoot.IsZero() {
		t.Fatal("zero merkle root")
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNewShardBlockEmpty(t *testing.T) {
	if _, err := NewShardBlock(0, 0, 0, nil); !errors.Is(err, ErrEmptyShard) {
		t.Fatalf("err = %v, want ErrEmptyShard", err)
	}
}

func TestShardBlockCopiesInput(t *testing.T) {
	txs := makeTxs(3, 0)
	b, err := NewShardBlock(0, 0, 0, txs)
	if err != nil {
		t.Fatal(err)
	}
	txs[0].Amount = 999999
	if err := b.Verify(); err != nil {
		t.Fatalf("mutating the caller's slice corrupted the block: %v", err)
	}
}

func TestShardBlockVerifyDetectsTamper(t *testing.T) {
	b, err := NewShardBlock(0, 0, 0, makeTxs(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	b.Transactions[2].Amount++
	if err := b.Verify(); !errors.Is(err, ErrBadMerkleRoot) {
		t.Fatalf("tampered shard verified: %v", err)
	}
}

func TestShardBlockVerifyDetectsCountMismatch(t *testing.T) {
	b, err := NewShardBlock(0, 0, 0, makeTxs(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	b.TxCount = 5
	if err := b.Verify(); err == nil {
		t.Fatal("count mismatch not detected")
	}
}

func TestShardBlockHashDependsOnContent(t *testing.T) {
	a, _ := NewShardBlock(1, 1, 0, makeTxs(3, 0))
	b, _ := NewShardBlock(1, 1, 0, makeTxs(3, 100))
	if a.Hash() == b.Hash() {
		t.Fatal("different shard contents share a hash")
	}
	c, _ := NewShardBlock(2, 1, 0, makeTxs(3, 0))
	if a.Hash() == c.Hash() {
		t.Fatal("different committees share a hash")
	}
}

func TestMerkleRootBasics(t *testing.T) {
	if !MerkleRoot(nil).IsZero() {
		t.Fatal("empty merkle root should be zero")
	}
	leaf := Transaction{ID: 1}.Hash()
	if MerkleRoot([]Hash{leaf}) != leaf {
		t.Fatal("single-leaf root should be the leaf")
	}
	two := MerkleRoot([]Hash{leaf, Transaction{ID: 2}.Hash()})
	if two == leaf || two.IsZero() {
		t.Fatal("two-leaf root malformed")
	}
}

func TestMerkleRootOddDuplication(t *testing.T) {
	// With the duplicate-last convention, [a b c] hashes like [a b c c].
	hs := []Hash{
		Transaction{ID: 1}.Hash(),
		Transaction{ID: 2}.Hash(),
		Transaction{ID: 3}.Hash(),
	}
	withDup := append(append([]Hash(nil), hs...), hs[2])
	if MerkleRoot(hs) != MerkleRoot(withDup) {
		t.Fatal("odd-layer duplication rule violated")
	}
}

func TestMerkleRootOrderSensitive(t *testing.T) {
	a := Transaction{ID: 1}.Hash()
	b := Transaction{ID: 2}.Hash()
	if MerkleRoot([]Hash{a, b}) == MerkleRoot([]Hash{b, a}) {
		t.Fatal("merkle root should depend on leaf order")
	}
}

func TestMerkleProofRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = Transaction{ID: uint64(i)}.Hash()
		}
		root := MerkleRoot(leaves)
		for i := 0; i < n; i++ {
			proof, err := MerkleProof(leaves, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !VerifyMerkleProof(leaves[i], i, proof, root) {
				t.Fatalf("n=%d i=%d: proof rejected", n, i)
			}
			// A wrong leaf must fail.
			if VerifyMerkleProof(Transaction{ID: 999}.Hash(), i, proof, root) {
				t.Fatalf("n=%d i=%d: forged proof accepted", n, i)
			}
		}
	}
}

func TestMerkleProofBadIndex(t *testing.T) {
	leaves := []Hash{Transaction{ID: 1}.Hash()}
	if _, err := MerkleProof(leaves, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := MerkleProof(leaves, 1); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestMerkleProofProperty(t *testing.T) {
	f := func(ids []uint64, pick uint8) bool {
		if len(ids) == 0 {
			return true
		}
		leaves := make([]Hash, len(ids))
		for i, id := range ids {
			leaves[i] = Transaction{ID: id}.Hash()
		}
		i := int(pick) % len(leaves)
		proof, err := MerkleProof(leaves, i)
		if err != nil {
			return false
		}
		return VerifyMerkleProof(leaves[i], i, proof, MerkleRoot(leaves))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRootChainAppendAndVerify(t *testing.T) {
	c := NewRootChain()
	if c.Height() != 0 || c.Tip() != nil || !c.TipHash().IsZero() {
		t.Fatal("empty chain state wrong")
	}
	var lastHash Hash
	for epoch := 1; epoch <= 4; epoch++ {
		s1, _ := NewShardBlock(0, epoch, 0, makeTxs(3, uint64(epoch*100)))
		s2, _ := NewShardBlock(1, epoch, 0, makeTxs(2, uint64(epoch*200)))
		fb, err := c.Append(epoch, time.Duration(epoch)*time.Hour, []*ShardBlock{s1, s2})
		if err != nil {
			t.Fatal(err)
		}
		if fb.Height != epoch-1 || fb.TxTotal != 5 || len(fb.ShardRoots) != 2 {
			t.Fatalf("final block %+v", fb)
		}
		if fb.Parent != lastHash {
			t.Fatal("parent link broken")
		}
		lastHash = fb.Hash()
	}
	if c.Height() != 4 || c.TotalTxs() != 20 {
		t.Fatalf("chain height %d txs %d", c.Height(), c.TotalTxs())
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRootChainRejectsBadShard(t *testing.T) {
	c := NewRootChain()
	s, _ := NewShardBlock(0, 1, 0, makeTxs(3, 0))
	s.Transactions[0].Amount++ // tamper
	if _, err := c.Append(1, 0, []*ShardBlock{s}); err == nil {
		t.Fatal("tampered shard accepted")
	}
	if c.Height() != 0 {
		t.Fatal("failed append changed the chain")
	}
}

func TestRootChainEmptyFinalBlock(t *testing.T) {
	// An epoch can (degenerately) commit zero shards; the chain still
	// extends and verifies.
	c := NewRootChain()
	fb, err := c.Append(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fb.TxTotal != 0 {
		t.Fatalf("tx total %d", fb.TxTotal)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRootChainVerifyDetectsTamper(t *testing.T) {
	c := NewRootChain()
	s, _ := NewShardBlock(0, 1, 0, makeTxs(3, 0))
	if _, err := c.Append(1, 0, []*ShardBlock{s}); err != nil {
		t.Fatal(err)
	}
	s2, _ := NewShardBlock(0, 2, 0, makeTxs(3, 50))
	if _, err := c.Append(2, 0, []*ShardBlock{s2}); err != nil {
		t.Fatal(err)
	}
	c.tail[0].Height = 5
	if err := c.Verify(); !errors.Is(err, ErrBadHeight) {
		t.Fatalf("height tamper not detected: %v", err)
	}
	c.tail[0].Height = 0
	c.tail[1].Parent = Hash{1}
	if err := c.Verify(); !errors.Is(err, ErrBadParent) {
		t.Fatalf("parent tamper not detected: %v", err)
	}
}

// TestRootChainKeepsBoundedTail appends three tails' worth of blocks:
// the height and the running total cover every block, the chain holds
// only the last tailLen, Verify passes over them, and a tampered tail
// block fails it.
func TestRootChainKeepsBoundedTail(t *testing.T) {
	c := NewRootChain()
	const n = 3 * tailLen
	want := 0
	for e := 1; e <= n; e++ {
		s, err := NewShardHeader(0, e, 0, Transaction{ID: uint64(e)}.Hash(), e)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := c.Append(e, time.Duration(e)*time.Second, []*ShardBlock{s})
		if err != nil {
			t.Fatal(err)
		}
		want += fb.TxTotal
	}
	if c.Height() != n || c.TotalTxs() != want {
		t.Fatalf("height %d txs %d, want %d and %d", c.Height(), c.TotalTxs(), n, want)
	}
	if tip := c.Tip(); tip.Height != n-1 || tip.Hash() != c.TipHash() {
		t.Fatalf("tip %+v", tip)
	}
	for _, b := range c.tail {
		if b.Height < n-tailLen {
			t.Fatalf("chain still holds block %d of %d", b.Height, n)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	c.tail[(n-tailLen/2)%tailLen].TxTotal++
	if err := c.Verify(); !errors.Is(err, ErrBadHash) {
		t.Fatalf("tampered tail block verified: %v", err)
	}
}

func TestRandomnessRefreshChanges(t *testing.T) {
	c := NewRootChain()
	s1, _ := NewShardBlock(0, 1, 0, makeTxs(1, 0))
	fb1, err := c.Append(1, 0, []*ShardBlock{s1})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewShardBlock(0, 2, 0, makeTxs(1, 10))
	fb2, err := c.Append(2, 0, []*ShardBlock{s2})
	if err != nil {
		t.Fatal(err)
	}
	if fb1.Randomness == fb2.Randomness {
		t.Fatal("epoch randomness did not refresh")
	}
	if fb1.Randomness.IsZero() {
		t.Fatal("epoch randomness is zero")
	}
}

func TestHeaderOnlyShardBlock(t *testing.T) {
	sb, err := NewShardHeader(2, 1, time.Second, Transaction{ID: 1}.Hash(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !sb.HeaderOnly() {
		t.Fatal("not header-only")
	}
	if err := sb.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardHeader(2, 1, 0, Hash{}, 100); err == nil {
		t.Fatal("zero root accepted")
	}
	if _, err := NewShardHeader(2, 1, 0, Transaction{ID: 1}.Hash(), 0); err == nil {
		t.Fatal("zero count accepted")
	}
	full, err := NewShardBlock(0, 1, 0, makeTxs(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if full.HeaderOnly() {
		t.Fatal("full block claims header-only")
	}
}

func TestHashStringForms(t *testing.T) {
	h := Transaction{ID: 42}.Hash()
	if len(h.String()) != 64 {
		t.Fatalf("hex length %d", len(h.String()))
	}
	if len(h.Short()) != 8 {
		t.Fatalf("short length %d", len(h.Short()))
	}
}
