package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCheckHealthHeapTrend: the warm-up quarter is ignored, growth
// within the slack passes, growth beyond it fails, and fewer than four
// samples pass whatever they hold.
func TestCheckHealthHeapTrend(t *testing.T) {
	const mib = 1 << 20
	base := runtime.NumGoroutine() + 64 // headroom: only the heap gate is under test
	for _, tc := range []struct {
		name  string
		heaps []uint64
		fail  bool
	}{
		{"flat", []uint64{5 * mib, 5 * mib, 5 * mib, 5 * mib}, false},
		{"warm-up ignored", []uint64{1 * mib, 1 * mib, 5 * mib, 5 * mib, 5 * mib, 5 * mib, 5 * mib, 5 * mib}, false},
		{"within slack", []uint64{5 * mib, 5 * mib, 6 * mib, 6 * mib}, false},
		{"beyond slack", []uint64{5 * mib, 5 * mib, 6*mib + 1, 6*mib + 1}, true},
		{"late minimum decides", []uint64{5 * mib, 5 * mib, 5 * mib, 9 * mib, 9 * mib, 5 * mib, 9 * mib, 9 * mib}, false},
		{"too few samples", []uint64{1 * mib, 99 * mib, 99 * mib}, false},
	} {
		err := CheckHealth(tc.heaps, mib, base)
		if (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fail)
		}
		if err != nil && !strings.Contains(err.Error(), "heap grew") {
			t.Errorf("%s: err = %v, want a heap finding", tc.name, err)
		}
	}
}

// TestCheckHealthGoroutines: goroutines that exit within the settle
// window pass; ones still running after it are reported as a leak.
func TestCheckHealthGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		go time.Sleep(50 * time.Millisecond)
	}
	if err := CheckHealth(nil, 0, baseline); err != nil {
		t.Fatalf("exiting goroutines reported: %v", err)
	}

	stop := make(chan struct{})
	defer close(stop)
	baseline = runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		go func() { <-stop }()
	}
	err := CheckHealth(nil, 0, baseline)
	if err == nil || !strings.Contains(err.Error(), "goroutine leak") {
		t.Fatalf("err = %v, want a goroutine leak", err)
	}
}
