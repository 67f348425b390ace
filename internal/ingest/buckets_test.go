package ingest

import (
	"fmt"
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
			b := clocked(NewBuckets(tc.rate, tc.burst, 0), clock)
			for i, st := range tc.steps {
				clock.advance(st.advance)
				if got := b.Allow(st.source, st.n); got != st.want {
					t.Fatalf("step %d (%s n=%d): Allow = %v, want %v", i, st.source, st.n, got, st.want)
				}
			}
		})
	}
}

// TestBucketsBounded pins the admission-state bound: a rotating swarm
// of sources never grows the bucket map past MaxSources.
func TestBucketsBounded(t *testing.T) {
	clock := newFakeClock()
	b := clocked(NewBuckets(10, 10, 8), clock)
	for i := 0; i < 100; i++ {
		clock.advance(time.Millisecond)
		b.Allow(fmt.Sprintf("src-%d", i), 1)
	}
	if n := len(b.m); n > 8 {
		t.Fatalf("bucket map grew to %d sources, bound is 8", n)
	}
	// Recently active sources keep their state across evictions of
	// stale ones: src-99 just spent a token from its burst of 10.
	if !b.Allow("src-99", 9) {
		t.Fatal("recently active source lost its bucket state")
	}
	if b.Allow("src-99", 1) {
		t.Fatal("src-99 should be out of tokens")
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
