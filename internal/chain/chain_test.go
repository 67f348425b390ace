package chain

import (
	"errors"
	"testing"
	"time"
)

// header builds a shard block committing to root Transaction{ID: id}.
func header(t *testing.T, committee, epoch int, id uint64, txCount int) *ShardBlock {
	t.Helper()
	b, err := NewShardHeader(committee, epoch, 0, Transaction{ID: id}.Hash(), txCount)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

func TestShardBlockHashDependsOnContent(t *testing.T) {
	a := header(t, 1, 1, 0, 3)
	if a.Hash() == header(t, 1, 1, 100, 3).Hash() {
		t.Fatal("different shard contents share a hash")
	}
	if a.Hash() == header(t, 2, 1, 0, 3).Hash() {
		t.Fatal("different committees share a hash")
	}
	if a.Hash() == header(t, 1, 1, 0, 4).Hash() {
		t.Fatal("different tx counts share a hash")
	}
}

func TestRootChainAppendAndVerify(t *testing.T) {
	c := NewRootChain()
	if c.Height() != 0 || c.Tip() != nil || !c.TipHash().IsZero() {
		t.Fatal("empty chain state wrong")
	}
	var lastHash Hash
	for epoch := 1; epoch <= 4; epoch++ {
		s1 := header(t, 0, epoch, uint64(epoch*100), 3)
		s2 := header(t, 1, epoch, uint64(epoch*200), 2)
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
	s := header(t, 0, 1, 0, 3)
	s.MerkleRoot = Hash{} // tamper
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
	if _, err := c.Append(1, 0, []*ShardBlock{header(t, 0, 1, 0, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(2, 0, []*ShardBlock{header(t, 0, 2, 50, 3)}); err != nil {
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
		fb, err := c.Append(e, time.Duration(e)*time.Second, []*ShardBlock{header(t, 0, e, uint64(e), e)})
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
	fb1, err := c.Append(1, 0, []*ShardBlock{header(t, 0, 1, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fb2, err := c.Append(2, 0, []*ShardBlock{header(t, 0, 2, 10, 1)})
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
	if sb.Committee != 2 || sb.Epoch != 1 || sb.Latency != time.Second || sb.TxCount != 100 {
		t.Fatalf("block %+v", sb)
	}
	if err := sb.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardHeader(2, 1, 0, Hash{}, 100); !errors.Is(err, ErrEmptyShard) {
		t.Fatalf("zero root: err = %v, want ErrEmptyShard", err)
	}
	if _, err := NewShardHeader(2, 1, 0, Transaction{ID: 1}.Hash(), 0); !errors.Is(err, ErrEmptyShard) {
		t.Fatalf("zero count: err = %v, want ErrEmptyShard", err)
	}
	zeroRoot, zeroCount := *sb, *sb
	zeroRoot.MerkleRoot = Hash{}
	zeroCount.TxCount = 0
	if err := zeroRoot.Verify(); !errors.Is(err, ErrBadMerkleRoot) {
		t.Fatalf("zeroed root verified: %v", err)
	}
	if err := zeroCount.Verify(); !errors.Is(err, ErrEmptyShard) {
		t.Fatalf("zeroed count verified: %v", err)
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
