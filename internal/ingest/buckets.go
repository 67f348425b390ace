package ingest

import (
	"sync"
	"time"
)

// Buckets is a bounded set of per-source token buckets: each source
// refills at Rate transactions per second up to Burst, and a submission
// of n transactions needs n tokens. The map itself is bounded — above
// MaxSources the stalest source is evicted — so a rotating swarm of
// client identities cannot grow the heap ("never unbounded" applies to
// the admission state too, not just the queue).
type Buckets struct {
	rate       float64
	burst      float64
	maxSources int
	now        func() time.Time

	mu sync.Mutex
	m  map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewBuckets returns a bucket set refilling at rate tx/s with the given
// burst. rate <= 0 disables rate limiting (Allow always true). burst <= 0
// defaults to rate (a one-second burst); maxSources <= 0 defaults to
// 1024.
func NewBuckets(rate, burst float64, maxSources int) *Buckets {
	if burst <= 0 {
		burst = rate
	}
	if maxSources <= 0 {
		maxSources = 1024
	}
	return &Buckets{
		rate:       rate,
		burst:      burst,
		maxSources: maxSources,
		now:        time.Now,
		m:          make(map[string]*bucket),
	}
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
		if len(b.m) >= b.maxSources {
			b.evictStalest()
		}
		bk = &bucket{tokens: b.burst, last: now}
		b.m[source] = bk
	} else {
		elapsed := now.Sub(bk.last).Seconds()
		if elapsed > 0 {
			bk.tokens += elapsed * b.rate
			if bk.tokens > b.burst {
				bk.tokens = b.burst
			}
			bk.last = now
		}
	}
	if bk.tokens < need {
		return false
	}
	bk.tokens -= need
	return true
}

// evictStalest drops the least-recently-refilled bucket (caller holds
// mu). An evicted source that returns simply starts a fresh full bucket,
// which only ever errs toward admitting — acceptable for a bound that
// exists to cap memory, not to be a security boundary.
func (b *Buckets) evictStalest() {
	var stalest string
	var when time.Time
	first := true
	for src, bk := range b.m {
		if first || bk.last.Before(when) {
			stalest, when, first = src, bk.last, false
		}
	}
	if !first {
		delete(b.m, stalest)
	}
}
