package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistryWithTrace(DefaultTraceCapacity)
	c := r.Counter("c_total", "test")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "other help ignored"); again != c {
		t.Fatal("registry did not return the same counter for the same name")
	}

	g := r.Gauge("g", "test")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	if again := r.Gauge("g", ""); again != g {
		t.Fatal("registry did not return the same gauge for the same name")
	}
}

// TestNilContract checks the package's core promise: nil registries,
// instruments, observers, and tracers are all fully inert.
func TestNilContract(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x", "", LinearBuckets(0, 1, 3))
	tr := reg.Tracer()
	if c != nil || g != nil || h != nil || tr != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(10)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Emit(EvSERound, "a", 1, "")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if b, n := h.Buckets(); b != nil || n != nil {
		t.Fatal("nil histogram buckets must be nil")
	}
	if ev, dropped := tr.Snapshot(); ev != nil || dropped != 0 {
		t.Fatal("nil tracer snapshot must be empty")
	}
	if tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer totals must be zero")
	}

	if NewSEObserver(nil) != nil {
		t.Fatal("NewSEObserver(nil) must be nil")
	}
	if NewDistObserver(nil, "worker") != nil {
		t.Fatal("NewDistObserver(nil) must be nil")
	}
	if NewEpochObserver(nil) != nil {
		t.Fatal("NewEpochObserver(nil) must be nil")
	}
	var do *DistObserver
	do.SetWorkersConnected(3)
	do.ObserveTaskLatency(1)
	do.TaskFailed("w", "boom")
	do.SetBestUtility(1)
	do.SetQueueDepth(1)
	do.MsgSent("task")
	do.MsgRecv("result")
}

// TestHistogramBucketBoundaries pins the Prometheus le (less-or-equal)
// semantics at the edges: exact bounds land in their own bucket, values
// below the first bound land in the first bucket, values above the last
// bound land in +Inf, and negative bounds work.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistryWithTrace(DefaultTraceCapacity)
	h := r.Histogram("h", "", []float64{1, 2, 3})
	for _, v := range []float64{1, 2, 3} { // exact bounds
		h.Observe(v)
	}
	h.Observe(0.5)  // below first bound -> first bucket
	h.Observe(-7)   // far below -> first bucket
	h.Observe(3.01) // above last bound -> +Inf
	bounds, counts := h.Buckets()
	if want := []float64{1, 2, 3}; len(bounds) != 3 || bounds[0] != want[0] || bounds[2] != want[2] {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	if want := []int64{3, 1, 1, 1}; len(counts) != 4 ||
		counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] || counts[3] != want[3] {
		t.Fatalf("bucket counts = %v, want %v", counts, want)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 1+2+3+0.5-7+3.01; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}

	neg := r.Histogram("neg", "", []float64{-1, 0, 1})
	neg.Observe(-2) // below first
	neg.Observe(-1) // exact negative bound
	neg.Observe(0)  // exact zero bound
	_, nc := neg.Buckets()
	if nc[0] != 2 || nc[1] != 1 || nc[2] != 0 || nc[3] != 0 {
		t.Fatalf("negative-bound counts = %v, want [2 1 0 0]", nc)
	}

	// Unsorted bounds are sorted at registration.
	u := r.Histogram("u", "", []float64{5, 1, 3})
	ub, _ := u.Buckets()
	if ub[0] != 1 || ub[1] != 3 || ub[2] != 5 {
		t.Fatalf("bounds not sorted: %v", ub)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := LinearBuckets(0, 10, 3); got[0] != 0 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("LinearBuckets = %v", got)
	}
	if got := ExponentialBuckets(1, 2, 4); got[3] != 8 {
		t.Fatalf("ExponentialBuckets = %v", got)
	}
	if got := LinearBuckets(0, 1, 0); len(got) != 1 {
		t.Fatalf("LinearBuckets floor: %v", got)
	}
}

// TestConcurrentWriters hammers every instrument kind from many
// goroutines; run under -race (ci.sh does) this doubles as the data-race
// proof, and the totals prove no increment was lost.
func TestConcurrentWriters(t *testing.T) {
	const goroutines = 16
	const perG = 1000
	r := NewRegistryWithTrace(DefaultTraceCapacity)
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{0.25, 0.5, 0.75})
	tr := r.Tracer()

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%4) * 0.25)
				tr.Emit(EvSERound, "w", float64(j), "")
			}
		}(i)
	}
	wg.Wait()

	const total = goroutines * perG
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge = %g, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	_, counts := h.Buckets()
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if sum != total {
		t.Fatalf("bucket counts sum to %d, want %d", sum, total)
	}
	if tr.Emitted() != total {
		t.Fatalf("tracer emitted = %d, want %d", tr.Emitted(), total)
	}
	if ev, dropped := tr.Snapshot(); uint64(len(ev))+dropped != total {
		t.Fatalf("snapshot len %d + dropped %d != %d", len(ev), dropped, total)
	}
}
