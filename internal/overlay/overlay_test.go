package overlay

import (
	"math"
	"testing"
	"time"

	"mvcom/internal/randx"
)

func newNet(t *testing.T, n int, cfg Config) *Network {
	t.Helper()
	nw, err := NewNetwork(randx.New(1), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewNetworkErrors(t *testing.T) {
	if _, err := NewNetwork(randx.New(1), 0, Config{}); err != ErrNoNodes {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewNetwork(randx.New(1), -3, Config{}); err != ErrNoNodes {
		t.Fatalf("err = %v", err)
	}
}

func TestDelayPositiveAndVariable(t *testing.T) {
	nw := newNet(t, 10, Config{})
	seen := make(map[time.Duration]bool)
	for i := 0; i < 100; i++ {
		d, ok := nw.Delay(0, 1)
		if !ok {
			t.Fatal("delivery failed with zero loss")
		}
		if d <= 0 {
			t.Fatalf("non-positive delay %v", d)
		}
		seen[d] = true
	}
	if len(seen) < 50 {
		t.Fatalf("delays not variable: %d distinct", len(seen))
	}
}

func TestDelayMeanNearConfigured(t *testing.T) {
	nw := newNet(t, 50, Config{MeanLatency: 100 * time.Millisecond})
	var sum float64
	const n = 30000
	for i := 0; i < n; i++ {
		d, ok := nw.Delay(i%50, (i+7)%50)
		if !ok {
			continue
		}
		sum += d.Seconds()
	}
	mean := sum / n
	// Node factors have mean 1 each; allow a generous band.
	if mean < 0.06 || mean > 0.16 {
		t.Fatalf("mean delay %.4f s, want ~0.1", mean)
	}
}

func TestDelayBadNodes(t *testing.T) {
	nw := newNet(t, 3, Config{})
	if _, ok := nw.Delay(-1, 0); ok {
		t.Fatal("negative src accepted")
	}
	if _, ok := nw.Delay(0, 99); ok {
		t.Fatal("out-of-range dst accepted")
	}
}

func TestLossRate(t *testing.T) {
	nw := newNet(t, 2, Config{LossRate: 0.5})
	lost := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if _, ok := nw.Delay(0, 1); !ok {
			lost++
		}
	}
	p := float64(lost) / n
	if math.Abs(p-0.5) > 0.03 {
		t.Fatalf("loss rate %.3f, want 0.5", p)
	}
}

func TestLossRateClamped(t *testing.T) {
	nw := newNet(t, 2, Config{LossRate: 5})
	if _, ok := nw.Delay(0, 1); ok {
		t.Fatal("loss rate 5 should clamp to 1 (always lost)")
	}
	nw2 := newNet(t, 2, Config{LossRate: -1})
	if _, ok := nw2.Delay(0, 1); !ok {
		t.Fatal("negative loss rate should clamp to 0")
	}
}

func TestBroadcastDelay(t *testing.T) {
	nw := newNet(t, 6, Config{})
	members := []int{0, 1, 2, 3, 4, 5}
	d, ok := nw.BroadcastDelay(0, members)
	if !ok || d <= 0 {
		t.Fatalf("broadcast %v ok=%v", d, ok)
	}
	// Broadcast max must be at least any single link sample in the same
	// draw set — verified statistically: it should exceed the mean delay
	// most of the time with 5 receivers.
	exceeds := 0
	for i := 0; i < 200; i++ {
		d, _ := nw.BroadcastDelay(0, members)
		if d > 100*time.Millisecond {
			exceeds++
		}
	}
	if exceeds < 100 {
		t.Fatalf("broadcast max rarely exceeds mean link latency: %d/200", exceeds)
	}
}

func TestBroadcastDelaySelfOnly(t *testing.T) {
	nw := newNet(t, 2, Config{})
	if _, ok := nw.BroadcastDelay(0, []int{0}); ok {
		t.Fatal("self-only broadcast reported reachable")
	}
}

func TestBroadcastSkipsFailed(t *testing.T) {
	// Half the messages are lost: a broadcast that reaches some receiver
	// reports its delay, and only one that reaches nobody fails.
	nw := newNet(t, 3, Config{LossRate: 0.5})
	reached, missed := 0, 0
	for i := 0; i < 200; i++ {
		d, ok := nw.BroadcastDelay(0, []int{0, 1, 2})
		if !ok {
			missed++
			continue
		}
		if d <= 0 {
			t.Fatalf("reached broadcast took %v", d)
		}
		reached++
	}
	if reached == 0 || missed == 0 {
		t.Fatalf("reached %d, missed %d of 200 broadcasts at loss 0.5", reached, missed)
	}
	lost := newNet(t, 3, Config{LossRate: 1})
	if _, ok := lost.BroadcastDelay(0, []int{0, 1, 2}); ok {
		t.Fatal("broadcast with every message lost reported success")
	}
}

func TestGossipRounds(t *testing.T) {
	tests := []struct {
		k, fanout, want int
	}{
		{0, 4, 0},
		{1, 4, 0},
		{4, 4, 2},   // log_4(4)=1, +1
		{16, 4, 3},  // log_4(16)=2, +1
		{100, 4, 5}, // ceil(log_4 100)=4, +1
		{10, 1, 5},  // fanout clamped to 2: ceil(log2 10)=4, +1
	}
	for _, tt := range tests {
		if got := GossipRounds(tt.k, tt.fanout); got != tt.want {
			t.Fatalf("GossipRounds(%d,%d) = %d, want %d", tt.k, tt.fanout, got, tt.want)
		}
	}
}

func TestConfigureOverlayGrowsWithMembers(t *testing.T) {
	nw := newNet(t, 400, Config{})
	small := members(0, 20)
	large := members(0, 400)
	var sumSmall, sumLarge float64
	for i := 0; i < 20; i++ {
		a, err := nw.ConfigureOverlay(small, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		b, err := nw.ConfigureOverlay(large, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		sumSmall += a.Seconds()
		sumLarge += b.Seconds()
	}
	if sumLarge <= sumSmall {
		t.Fatalf("overlay configuration did not grow with membership: %v vs %v", sumSmall, sumLarge)
	}
}

func TestConfigureOverlayEmpty(t *testing.T) {
	nw := newNet(t, 2, Config{})
	if _, err := nw.ConfigureOverlay(nil, 0); err != ErrNoNodes {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigureOverlayAllFailedStillTerminates(t *testing.T) {
	nw := newNet(t, 4, Config{LossRate: 1})
	d, err := nw.ConfigureOverlay(members(0, 4), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("expected timeout-charged latency")
	}
}

func members(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
