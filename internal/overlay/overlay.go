// Package overlay models the peer-to-peer network substrate of the sharded
// blockchain: pairwise message latencies, broadcast/gossip cost within a
// committee, the overlay-configuration stage in which committee members
// discover each other, and the ping-based failure detector the final
// committee uses to declare a member committee failed (Section V of the
// paper: "once a member committee is found having a large ping delay, we
// say that the committee can be viewed as failed").
package overlay

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mvcom/internal/randx"
)

// Errors returned by the network model.
var (
	ErrUnknownNode = errors.New("overlay: unknown node")
	ErrNoNodes     = errors.New("overlay: network has no nodes")
)

// Config parameterizes the latency model. Link latencies are lognormal —
// the standard heavy-tailed model for WAN round trips.
type Config struct {
	// MeanLatency is the mean one-way message latency. Default 100 ms.
	MeanLatency time.Duration
	// Sigma is the lognormal spread of link latencies. Default 0.5.
	Sigma float64
	// LossRate is the probability an individual message is lost. Default 0.
	LossRate float64
}

func (c Config) withDefaults() Config {
	if c.MeanLatency <= 0 {
		c.MeanLatency = 100 * time.Millisecond
	}
	if c.Sigma <= 0 {
		c.Sigma = 0.5
	}
	if c.LossRate < 0 {
		c.LossRate = 0
	}
	if c.LossRate > 1 {
		c.LossRate = 1
	}
	return c
}

// Network is a latency model over a set of nodes. Each node has a
// location quality factor; a pair's base latency multiplies both factors,
// yielding a consistent triangle-inequality-free but realistic topology.
// Failed nodes answer nothing.
type Network struct {
	cfg     Config
	rng     *randx.RNG
	factors []float64
	failed  []bool
}

// NewNetwork builds a network of n nodes. Per-node factors are sampled at
// construction so that "slow" nodes stay slow across the run.
func NewNetwork(rng *randx.RNG, n int, cfg Config) (*Network, error) {
	if n <= 0 {
		return nil, ErrNoNodes
	}
	cfg = cfg.withDefaults()
	nw := &Network{
		cfg:     cfg,
		rng:     rng,
		factors: make([]float64, n),
		failed:  make([]bool, n),
	}
	for i := range nw.factors {
		// Per-node multiplier centered at 1 with mild spread.
		nw.factors[i] = rng.LogNormalMeanSpread(1.0, 0.25)
	}
	return nw, nil
}

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.factors) }

// Fail marks a node as failed; messages to and from it are lost and pings
// time out.
func (n *Network) Fail(node int) error {
	if node < 0 || node >= len(n.failed) {
		return ErrUnknownNode
	}
	n.failed[node] = true
	return nil
}

// Recover brings a failed node back online.
func (n *Network) Recover(node int) error {
	if node < 0 || node >= len(n.failed) {
		return ErrUnknownNode
	}
	n.failed[node] = false
	return nil
}

// Failed reports whether a node is failed.
func (n *Network) Failed(node int) bool {
	return node >= 0 && node < len(n.failed) && n.failed[node]
}

// Delay samples the one-way latency for a message from src to dst. A lost
// message or a failed endpoint returns (+Inf-like max duration, false).
func (n *Network) Delay(src, dst int) (time.Duration, bool) {
	if src < 0 || src >= len(n.factors) || dst < 0 || dst >= len(n.factors) {
		return maxDuration, false
	}
	if n.failed[src] || n.failed[dst] {
		return maxDuration, false
	}
	if n.cfg.LossRate > 0 && n.rng.Bool(n.cfg.LossRate) {
		return maxDuration, false
	}
	base := n.rng.LogNormalMeanSpread(n.cfg.MeanLatency.Seconds(), n.cfg.Sigma)
	d := base * n.factors[src] * n.factors[dst]
	return time.Duration(d * float64(time.Second)), true
}

const maxDuration = time.Duration(math.MaxInt64)

// RTT samples a ping round trip from src to dst. Failed endpoints or lost
// packets yield (maxDuration, false) — the "infinite" connection latency
// the paper's failure detector observes.
func (n *Network) RTT(src, dst int) (time.Duration, bool) {
	fwd, ok := n.Delay(src, dst)
	if !ok {
		return maxDuration, false
	}
	back, ok := n.Delay(dst, src)
	if !ok {
		return maxDuration, false
	}
	return fwd + back, true
}

// BroadcastDelay samples the time for src to deliver one message to every
// node in members: the maximum of the individual link delays (direct
// fan-out). Unreachable members are skipped; if no member is reachable the
// second return is false.
func (n *Network) BroadcastDelay(src int, members []int) (time.Duration, bool) {
	var worst time.Duration
	reached := false
	for _, m := range members {
		if m == src {
			continue
		}
		d, ok := n.Delay(src, m)
		if !ok {
			continue
		}
		reached = true
		if d > worst {
			worst = d
		}
	}
	return worst, reached
}

// GossipRounds estimates the number of gossip rounds to reach all k
// members with a fan-out: ceil(log_fanout(k)) + 1 extra round for stragglers.
func GossipRounds(k, fanout int) int {
	if k <= 1 {
		return 0
	}
	if fanout < 2 {
		fanout = 2
	}
	return int(math.Ceil(math.Log(float64(k))/math.Log(float64(fanout)))) + 1
}

// ConfigureOverlay simulates the Elastico overlay-configuration stage for
// one committee: members exchange membership lists via gossip; the stage
// latency is the number of gossip rounds times a sampled per-round delay
// plus a per-member identity-verification cost. The identity term is what
// makes formation latency grow linearly with network size in Fig. 2(a).
func (n *Network) ConfigureOverlay(members []int, perIdentity time.Duration) (time.Duration, error) {
	if len(members) == 0 {
		return 0, ErrNoNodes
	}
	rounds := GossipRounds(len(members), 4)
	var total time.Duration
	for r := 0; r < rounds; r++ {
		src := members[n.rng.Intn(len(members))]
		d, ok := n.BroadcastDelay(src, members)
		if !ok {
			// Entirely unreachable round; charge a timeout.
			d = 2 * n.cfg.MeanLatency
		}
		total += d
	}
	total += time.Duration(len(members)) * perIdentity
	return total, nil
}

// Detector is the ping-based failure detector: a node is suspected after
// Threshold consecutive ping timeouts (or RTTs above MaxRTT).
type Detector struct {
	net       *Network
	self      int
	maxRTT    time.Duration
	threshold int
	misses    map[int]int
}

// NewDetector builds a detector run by node self. maxRTT defaults to 10×
// the network mean latency; threshold defaults to 3.
func NewDetector(net *Network, self int, maxRTT time.Duration, threshold int) (*Detector, error) {
	if self < 0 || self >= net.Size() {
		return nil, ErrUnknownNode
	}
	if maxRTT <= 0 {
		maxRTT = 10 * net.cfg.MeanLatency
	}
	if threshold <= 0 {
		threshold = 3
	}
	return &Detector{
		net:       net,
		self:      self,
		maxRTT:    maxRTT,
		threshold: threshold,
		misses:    make(map[int]int),
	}, nil
}

// Probe pings the target once and updates suspicion state. It returns
// whether the target is currently suspected.
func (d *Detector) Probe(target int) bool {
	rtt, ok := d.net.RTT(d.self, target)
	if !ok || rtt > d.maxRTT {
		d.misses[target]++
	} else {
		d.misses[target] = 0
	}
	return d.misses[target] >= d.threshold
}

// Suspected reports whether the target has accumulated enough misses.
func (d *Detector) Suspected(target int) bool {
	return d.misses[target] >= d.threshold
}

// String describes the detector configuration.
func (d *Detector) String() string {
	return fmt.Sprintf("overlay.Detector{self=%d maxRTT=%s threshold=%d}", d.self, d.maxRTT, d.threshold)
}
