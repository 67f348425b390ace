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

func TestFailRecover(t *testing.T) {
	nw := newNet(t, 4, Config{})
	if err := nw.Fail(2); err != nil {
		t.Fatal(err)
	}
	if !nw.Failed(2) {
		t.Fatal("node not marked failed")
	}
	if _, ok := nw.Delay(0, 2); ok {
		t.Fatal("failed node received a message")
	}
	if _, ok := nw.Delay(2, 0); ok {
		t.Fatal("failed node sent a message")
	}
	if _, ok := nw.RTT(0, 2); ok {
		t.Fatal("ping to failed node succeeded")
	}
	if err := nw.Recover(2); err != nil {
		t.Fatal(err)
	}
	if nw.Failed(2) {
		t.Fatal("node still failed after recover")
	}
	if _, ok := nw.Delay(0, 2); !ok {
		t.Fatal("recovered node unreachable")
	}
	if err := nw.Fail(99); err != ErrUnknownNode {
		t.Fatalf("Fail(99) = %v", err)
	}
	if err := nw.Recover(-1); err != ErrUnknownNode {
		t.Fatalf("Recover(-1) = %v", err)
	}
	if nw.Failed(99) {
		t.Fatal("unknown node reported failed")
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

func TestRTTIsTwoDelays(t *testing.T) {
	nw := newNet(t, 2, Config{})
	for i := 0; i < 100; i++ {
		rtt, ok := nw.RTT(0, 1)
		if !ok || rtt <= 0 {
			t.Fatalf("rtt %v ok=%v", rtt, ok)
		}
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
	nw := newNet(t, 3, Config{})
	if err := nw.Fail(2); err != nil {
		t.Fatal(err)
	}
	d, ok := nw.BroadcastDelay(0, []int{0, 1, 2})
	if !ok || d <= 0 {
		t.Fatal("broadcast should still reach node 1")
	}
	if err := nw.Fail(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.BroadcastDelay(0, []int{0, 1, 2}); ok {
		t.Fatal("broadcast with all receivers failed reported success")
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
	nw := newNet(t, 4, Config{})
	for i := 0; i < 4; i++ {
		if err := nw.Fail(i); err != nil {
			t.Fatal(err)
		}
	}
	d, err := nw.ConfigureOverlay(members(0, 4), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("expected timeout-charged latency")
	}
}

func TestDetectorSuspectsFailedNode(t *testing.T) {
	nw := newNet(t, 3, Config{})
	det, err := NewDetector(nw, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Fail(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if det.Probe(1) {
			t.Fatalf("suspected after only %d misses", i+1)
		}
	}
	if !det.Probe(1) {
		t.Fatal("not suspected after threshold misses")
	}
	if !det.Suspected(1) {
		t.Fatal("Suspected disagrees with Probe")
	}
}

func TestDetectorRecoveryClearsSuspicion(t *testing.T) {
	nw := newNet(t, 3, Config{})
	det, err := NewDetector(nw, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Fail(1); err != nil {
		t.Fatal(err)
	}
	det.Probe(1)
	det.Probe(1)
	if !det.Suspected(1) {
		t.Fatal("should be suspected")
	}
	if err := nw.Recover(1); err != nil {
		t.Fatal(err)
	}
	if det.Probe(1) {
		t.Fatal("healthy probe should clear suspicion")
	}
	if det.Suspected(1) {
		t.Fatal("suspicion not cleared")
	}
}

func TestDetectorHealthyNodeNeverSuspected(t *testing.T) {
	nw := newNet(t, 2, Config{})
	det, err := NewDetector(nw, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if det.Probe(1) {
			t.Fatal("healthy node suspected")
		}
	}
}

func TestDetectorSlowRTTCountsAsMiss(t *testing.T) {
	nw := newNet(t, 2, Config{MeanLatency: time.Second})
	// maxRTT of 1 ns: every probe misses.
	det, err := NewDetector(nw, 0, time.Nanosecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	det.Probe(1)
	if !det.Probe(1) {
		t.Fatal("slow RTTs should accumulate misses")
	}
}

func TestNewDetectorErrors(t *testing.T) {
	nw := newNet(t, 2, Config{})
	if _, err := NewDetector(nw, 5, 0, 0); err != ErrUnknownNode {
		t.Fatalf("err = %v", err)
	}
	det, err := NewDetector(nw, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if det.String() == "" {
		t.Fatal("empty String()")
	}
}

func members(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
