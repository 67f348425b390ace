// Package overlay models the peer-to-peer network substrate of the sharded
// blockchain: pairwise message latencies, broadcast/gossip cost within a
// committee, and the overlay-configuration stage in which committee
// members discover each other.
package overlay

import (
	"errors"
	"math"
	"time"

	"mvcom/internal/randx"
)

// ErrNoNodes is returned for a network or committee without nodes.
var ErrNoNodes = errors.New("overlay: network has no nodes")

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
type Network struct {
	cfg     Config
	rng     *randx.RNG
	factors []float64
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
	}
	for i := range nw.factors {
		// Per-node multiplier centered at 1 with mild spread.
		nw.factors[i] = rng.LogNormalMeanSpread(1.0, 0.25)
	}
	return nw, nil
}

// Delay samples the one-way latency for a message from src to dst. A lost
// message or an unknown endpoint returns (+Inf-like max duration, false).
func (n *Network) Delay(src, dst int) (time.Duration, bool) {
	if src < 0 || src >= len(n.factors) || dst < 0 || dst >= len(n.factors) {
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
