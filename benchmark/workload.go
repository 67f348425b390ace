package main

import (
	"fmt"
	"time"
)

// front is the path a workload's load takes into the plane.
type front int

const (
	frontHTTP   front = iota // POST /txs over keep-alive HTTP/1.1
	frontTCP                 // newline-framed JSON envelopes
	frontDirect              // in-process NetStream.Submit, no wire
)

const (
	// gens is the number of generator goroutines; each owns one
	// connection (or one in-process source).
	gens = 2
	// batchTxs is the transactions per request.
	batchTxs = 100
	// warmup runs before every measurement window. It outlasts the
	// http-overload token-bucket burst (30 000 tx drained at a net
	// 30 000 tx/s), so that window sees the steady 50% refusal.
	warmup = 3 * time.Second
	// setupReps is how many times a run builds the plane; setup_s is
	// the median.
	setupReps = 21
	// committeeSeed seeds the simulated committees (the epoch
	// pipeline); -seed drives the requests and SE. The pipeline draws
	// its PBFT calibration from its seed once per run, and that one
	// draw gave solve-capacity's committed_tps a 9% interquartile
	// spread over ten seeds, against 0.5% with the committees fixed.
	committeeSeed = 1
)

// The mvcom-serve defaults that every workload keeps.
const (
	committeeSize = 4
	maxWait       = 100 * time.Millisecond
	maxDeferrals  = 2
	seIters       = 800
	seGamma       = 4
	queueTxs      = 65536 // the queue high-watermark
)

// planeConfig is what a workload's plane sets, named after the
// mvcom-serve flags it mirrors.
type planeConfig struct {
	committees  int
	alpha       float64
	capacity    int
	minBatch    int
	rate, burst float64 // per-source token bucket in tx/s and txs; 0 = off
	decisionLog bool
}

// serveDefaults is mvcom-serve with no flags.
var serveDefaults = planeConfig{committees: 8, alpha: 1.5, capacity: 50000, minBatch: 500}

// workload is one traffic mix plus the plane it runs against.
type workload struct {
	name  string
	front front
	// offered is the total tx/s of the open loop: requests are due on a
	// fixed schedule whether or not earlier ones have returned.
	offered float64
	plane   planeConfig
	// keepUp requires committed_tps within 2% of the admitted offered
	// rate: every admitted batch fits the block, so a shortfall is a
	// growing backlog.
	keepUp bool
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// README.md give the reason for each.
var workloads = []workload{
	{name: "http-steady", front: frontHTTP, offered: 120000, plane: serveDefaults, keepUp: true},
	{name: "tcp-steady", front: frontTCP, offered: 120000, plane: serveDefaults, keepUp: true},
	{name: "solve-capacity", front: frontDirect, offered: 200000, plane: func() planeConfig {
		c := serveDefaults
		c.committees, c.alpha, c.capacity, c.minBatch = 64, 10, 12000, 20000
		c.decisionLog = true
		return c
	}()},
	// Each source offers 61 000 tx/s, not exactly twice its bucket rate.
	// At exactly twice, every other request found the bucket holding
	// exactly one request's tokens, so send jitter alone chose which
	// requests passed, and that choice spread commit_p50 14% over ten
	// runs. Slightly more than twice makes the bucket's leftover sweep
	// steadily through its range, the same way in every run.
	{name: "http-overload", front: frontHTTP, offered: 122000, keepUp: true, plane: func() planeConfig {
		c := serveDefaults
		c.rate, c.burst = 30000, 30000
		return c
	}()},
}

// interval is the time between two requests of one generator.
func (w workload) interval() time.Duration {
	return time.Duration(float64(gens*batchTxs) / w.offered * float64(time.Second))
}

// shedFrac is the share of window requests admission must refuse: what
// the token buckets leave of the offered rate. At 0 any refusal fails
// the run; otherwise the share is checked to ±0.02.
func (w workload) shedFrac() float64 {
	if w.plane.rate == 0 {
		return 0
	}
	return 1 - gens*w.plane.rate/w.offered
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// validate rejects a plane whose queue watermark lets one flush give
// every committee a shard larger than the block. Such an epoch has no
// feasible selection and one burst ends Serve with "no feasible
// solution satisfies Nmin and capacity".
func (c planeConfig) validate() error {
	if per := (queueTxs + c.committees - 1) / c.committees; per > c.capacity {
		return fmt.Errorf("queue watermark %d over %d committees gives %d-tx shards, above capacity %d",
			queueTxs, c.committees, per, c.capacity)
	}
	return nil
}
