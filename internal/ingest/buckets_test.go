package ingest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fakeClock is an adjustable bucket clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time             { return c.t }
func (c *fakeClock) advance(d time.Duration)    { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                  { return &fakeClock{t: time.Unix(1000, 0)} }
func clocked(b *Buckets, c *fakeClock) *Buckets { b.now = c.now; return b }

// TestBucketsAdmission is the token-bucket table test: burst caps,
// refill over time, per-source isolation, and the rate-off escape.
func TestBucketsAdmission(t *testing.T) {
	type step struct {
		source  string
		n       int
		advance time.Duration // applied before the call
		want    bool
	}
	cases := []struct {
		name        string
		rate, burst float64
		steps       []step
	}{
		{
			name: "burst then starve", rate: 10, burst: 30,
			steps: []step{
				{source: "a", n: 30, want: true},                        // full burst drains the bucket
				{source: "a", n: 1, want: false},                        // empty
				{source: "b", n: 10, want: true},                        // sources are isolated
				{source: "a", n: 10, advance: time.Second, want: true},  // 10 tokens refilled
				{source: "a", n: 11, advance: time.Second, want: false}, // only 10 back
			},
		},
		{
			name: "oversized single batch never passes", rate: 10, burst: 20,
			steps: []step{
				{source: "a", n: 21, want: false},
				{source: "a", n: 21, advance: time.Hour, want: false}, // no amount of waiting helps
				{source: "a", n: 20, want: true},
			},
		},
		{
			name: "refill clamps at burst", rate: 100, burst: 50,
			steps: []step{
				{source: "a", n: 50, want: true},
				{source: "a", n: 50, advance: time.Hour, want: true}, // refilled, but only to burst
				{source: "a", n: 1, want: false},
			},
		},
		{
			name: "rate off admits everything", rate: 0, burst: 0,
			steps: []step{
				{source: "a", n: 1 << 20, want: true},
				{source: "a", n: 1 << 20, want: true},
			},
		},
		{
			name: "zero-count costs one token", rate: 1, burst: 1,
			steps: []step{
				{source: "a", n: 0, want: true},
				{source: "a", n: 0, want: false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			b := clocked(NewBuckets(tc.rate, tc.burst), clock)
			for i, st := range tc.steps {
				clock.advance(st.advance)
				if got := b.Allow(st.source, st.n); got != st.want {
					t.Fatalf("step %d (%s n=%d): Allow = %v, want %v", i, st.source, st.n, got, st.want)
				}
			}
		})
	}
}

// TestBucketsBounded pins the admission-state bound: the map holds
// maxSources sources, and a new one past it evicts the stalest, so a
// rotating swarm of sources never grows it.
func TestBucketsBounded(t *testing.T) {
	clock := newFakeClock()
	b := clocked(NewBuckets(10, 10), clock)
	for i := 0; i < maxSources; i++ {
		clock.advance(time.Millisecond)
		b.Allow(fmt.Sprintf("src-%d", i), 1)
	}
	if n := len(b.m); n != maxSources {
		t.Fatalf("bucket map holds %d sources, want %d", n, maxSources)
	}
	clock.advance(time.Millisecond)
	b.Allow("src-new", 1)
	if n := len(b.m); n != maxSources {
		t.Fatalf("bucket map grew to %d sources, bound is %d", n, maxSources)
	}
	if _, ok := b.m["src-0"]; ok {
		t.Fatal("the stalest source survived the eviction")
	}
	if _, ok := b.m["src-1"]; !ok {
		t.Fatal("a source other than the stalest was evicted")
	}
	// Recently active sources keep their state across evictions of
	// stale ones: the last filler just spent a token from its burst.
	last := fmt.Sprintf("src-%d", maxSources-1)
	if !b.Allow(last, 9) {
		t.Fatal("recently active source lost its bucket state")
	}
	if b.Allow(last, 1) {
		t.Fatalf("%s should be out of tokens", last)
	}
}

// TestBucketsEvictStalestProperty drives a full bucket map with a
// seeded mix of known and fresh sources under a fake clock that often
// stands still, so refill times tie. Whenever a fresh source evicts
// one, the evicted source held the minimal refill time among the held
// buckets, and the map stays at its bound.
func TestBucketsEvictStalestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	clock := newFakeClock()
	b := clocked(NewBuckets(1000, 10), clock)
	names := make([]string, 3*maxSources)
	for i := range names {
		names[i] = fmt.Sprintf("src-%d", i)
	}
	evictions := 0
	for op := 0; op < 4000; op++ {
		clock.advance(time.Duration(rng.Intn(3)) * time.Millisecond)
		src := names[rng.Intn(len(names))]
		var held map[string]time.Time
		if _, ok := b.m[src]; !ok && len(b.m) == maxSources {
			held = make(map[string]time.Time, len(b.m))
			for name, bk := range b.m {
				held[name] = bk.last
			}
		}
		b.Allow(src, 1+rng.Intn(5))
		if len(b.m) > maxSources {
			t.Fatalf("op %d: the bucket map grew to %d sources, bound is %d", op, len(b.m), maxSources)
		}
		if held == nil {
			continue
		}
		evictions++
		var stalest time.Time
		for _, last := range held {
			if stalest.IsZero() || last.Before(stalest) {
				stalest = last
			}
		}
		gone := 0
		for name, last := range held {
			if _, ok := b.m[name]; ok {
				continue
			}
			gone++
			if !last.Equal(stalest) {
				t.Fatalf("op %d: %s refilled at %v was evicted, but the stalest held source refilled at %v",
					op, name, last, stalest)
			}
		}
		if gone != 1 {
			t.Fatalf("op %d: a fresh source evicted %d sources, want 1", op, gone)
		}
	}
	if evictions < 500 {
		t.Fatalf("only %d evictions in the run; the property was barely exercised", evictions)
	}
}

// TestBucketsNilSafe: a nil bucket set admits everything (rate limiting
// off).
func TestBucketsNilSafe(t *testing.T) {
	var b *Buckets
	if !b.Allow("x", 1000) {
		t.Fatal("nil Buckets must admit")
	}
}
