// Package txpool implements the transaction mempool that grounds the
// paper's freshness metric: transactions arrive over (virtual) time, wait
// in the pool, and are drained into committee shards at each epoch. The
// cumulative age the MVCom objective penalizes is exactly the waiting
// time accumulated here between a transaction's arrival and the epoch
// deadline at which its shard is permitted.
package txpool

import (
	"container/heap"
	"time"

	"mvcom/internal/chain"
)

// item orders transactions by arrival time (FIFO per timestamp, sequence
// breaking ties).
type item struct {
	tx  chain.Transaction
	seq uint64
}

type txHeap []item

func (h txHeap) Len() int { return len(h) }
func (h txHeap) Less(i, j int) bool {
	if h[i].tx.Created != h[j].tx.Created {
		return h[i].tx.Created < h[j].tx.Created
	}
	return h[i].seq < h[j].seq
}
func (h txHeap) Swap(i, j int)           { h[i], h[j] = h[j], h[i] }
func (h *txHeap) Push(x any)             { *h = append(*h, x.(item)) }
func (h *txHeap) Pop() any               { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h txHeap) peek() chain.Transaction { return h[0].tx }

// Pool is a virtual-time mempool. It is not safe for concurrent use; a
// simulation drives it from one goroutine.
type Pool struct {
	heap txHeap
	seq  uint64
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Len returns the number of waiting transactions.
func (p *Pool) Len() int { return len(p.heap) }

// Add inserts a transaction keyed by its Created timestamp.
func (p *Pool) Add(tx chain.Transaction) {
	heap.Push(&p.heap, item{tx: tx, seq: p.seq})
	p.seq++
}

// DrainArrived removes and returns every transaction that arrived at or
// before now, oldest first, up to max entries (max <= 0 means no limit).
func (p *Pool) DrainArrived(now time.Duration, max int) []chain.Transaction {
	var out []chain.Transaction
	for len(p.heap) > 0 && p.heap.peek().Created <= now {
		if max > 0 && len(out) >= max {
			break
		}
		it := heap.Pop(&p.heap).(item)
		out = append(out, it.tx)
	}
	return out
}
