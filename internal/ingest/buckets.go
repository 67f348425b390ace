package ingest

import (
	"sync"
	"time"
)

// Buckets is a bounded set of per-source token buckets: each source
// refills at Rate transactions per second up to Burst, and a submission
// of n transactions needs n tokens. The map itself is bounded — above
// maxSources the stalest source is evicted — so a rotating swarm of
// client identities cannot grow the heap ("never unbounded" applies to
// the admission state too, not just the queue).
type Buckets struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu sync.Mutex
	m  map[string]*bucket
	// lru is the sentinel of a circular list of the held buckets, least
	// recently refilled first: a refill moves its bucket to the tail, so
	// the stalest source is always lru.next and eviction takes constant
	// time under mu.
	lru bucket
}

// maxSources bounds the bucket map.
const maxSources = 1024

type bucket struct {
	tokens     float64
	last       time.Time
	source     string // the map key, so an evicted bucket can leave the map
	prev, next *bucket
}

// NewBuckets returns a bucket set refilling at rate tx/s with the given
// burst. rate <= 0 disables rate limiting (Allow always true). burst <= 0
// defaults to rate (a one-second burst).
func NewBuckets(rate, burst float64) *Buckets {
	if burst <= 0 {
		burst = rate
	}
	b := &Buckets{
		rate:  rate,
		burst: burst,
		now:   time.Now,
		m:     make(map[string]*bucket),
	}
	b.lru.prev, b.lru.next = &b.lru, &b.lru
	return b
}

// Allow reports whether source may submit n transactions now, consuming
// the tokens when it may. A single submission larger than the burst can
// never pass; nil Buckets or rate <= 0 always allows.
func (b *Buckets) Allow(source string, n int) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	if n <= 0 {
		n = 1
	}
	need := float64(n)
	if need > b.burst {
		return false
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	bk, ok := b.m[source]
	if !ok {
		if len(b.m) < maxSources {
			bk = new(bucket)
		} else {
			// The least recently refilled source is evicted, and the new
			// one takes over its bucket. An evicted source that returns
			// simply starts a fresh full bucket, which only ever errs
			// toward admitting — acceptable for a bound that exists to cap
			// memory, not to be a security boundary.
			bk = b.lru.next
			delete(b.m, bk.source)
		}
		bk.tokens, bk.last, bk.source = b.burst, now, source
		b.m[source] = bk
		b.toTail(bk)
	} else {
		elapsed := now.Sub(bk.last).Seconds()
		if elapsed > 0 {
			bk.tokens += elapsed * b.rate
			if bk.tokens > b.burst {
				bk.tokens = b.burst
			}
			bk.last = now
			b.toTail(bk)
		}
	}
	if bk.tokens < need {
		return false
	}
	bk.tokens -= need
	return true
}

// toTail moves bk to the most recently refilled end of the list,
// unlinking it first when it is held (caller holds mu). Concurrent
// callers read the clock before taking mu, so list order follows
// refill order, which is `last` order up to that skew.
func (b *Buckets) toTail(bk *bucket) {
	if bk.prev != nil {
		bk.prev.next, bk.next.prev = bk.next, bk.prev
	}
	tail := b.lru.prev
	bk.prev, bk.next = tail, &b.lru
	tail.next, b.lru.prev = bk, bk
}
