// Package swarm drives a synthetic client fleet against a serving
// plane. The workload is txgen-derived: the trace is partitioned into
// per-client shards exactly the way the evaluation partitions blocks
// into member-committee shards, and each client offers its shard's
// transactions in paced batches at a configured rate. Pointing the
// fleet's aggregate offered rate above the plane's admission capacity
// makes shedding deterministic by construction, which is what the soak
// and CI gates need: shed traffic must be counted, accepted traffic
// must be committed, and the heap must stay flat.
package swarm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/randx"
	"mvcom/internal/txgen"
)

// Submitter is the client fleet's view of a serving plane: the HTTP
// front end (Dial) or an in-process NetStream (Direct).
type Submitter interface {
	// SubmitTxs offers a batch; ok reports admission, reason the shed
	// class when !ok, err a transport failure (nothing accounted).
	SubmitTxs(source string, txs []chain.Transaction) (ok bool, reason string, err error)
}

// Config parameterizes the fleet.
type Config struct {
	// Clients is the number of concurrent clients; each owns one shard
	// of the trace (<= 0 defaults to 4).
	Clients int
	// Trace shapes the synthetic workload (zero value = paper defaults,
	// which are heavyweight — tests and CI pass a small trace).
	Trace txgen.Config
	// Seed drives trace synthesis, sharding, and transaction
	// materialization.
	Seed int64
	// Rate is each client's offered transaction rate in tx/s (<= 0
	// defaults to 1000). Admission capacity is set on the server; offer
	// 2x the per-source admitted rate to force shedding.
	Rate float64
	// Batch is the transactions per request (<= 0 defaults to 100).
	Batch int
	// Duration is the offering window; each client loops over its
	// shard's transactions until it closes (<= 0 defaults to 2s).
	Duration time.Duration
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Batch <= 0 {
		c.Batch = 100
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// Stats is the fleet-side accounting ledger. The driver cross-checks it
// against the server's ingest.Stats: every request the fleet counts
// must land accepted-or-shed on the server.
type Stats struct {
	Requests    int64 `json:"requests"`
	Accepted    int64 `json:"accepted"`
	Shed        int64 `json:"shed"`
	Errors      int64 `json:"errors"`
	TxsOffered  int64 `json:"txsOffered"`
	TxsAccepted int64 `json:"txsAccepted"`
}

// Run drives the fleet until every client's offering window closes or
// ctx is canceled, then returns the aggregate ledger. An error is
// returned only for setup failures (an unusable trace); transport
// errors during the run are counted in Stats.Errors.
func Run(ctx context.Context, cfg Config, target Submitter) (Stats, error) {
	cfg = cfg.withDefaults()
	rng := randx.New(cfg.Seed)
	trace := txgen.Generate(rng, cfg.Trace)
	shards, err := trace.IntoShards(rng, cfg.Clients)
	if err != nil {
		return Stats{}, fmt.Errorf("swarm: shard the trace: %w", err)
	}

	var requests, accepted, shed, errs, txsOffered, txsAccepted atomic.Int64
	interval := time.Duration(float64(cfg.Batch) / cfg.Rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Millisecond
	}

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int, clientRNG *randx.RNG) {
			defer wg.Done()
			txs := trace.Transactions(shards[c], clientRNG)
			if len(txs) == 0 {
				return
			}
			source := fmt.Sprintf("swarm-%d", c)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			deadline := time.NewTimer(cfg.Duration)
			defer deadline.Stop()
			pos := 0
			for {
				select {
				case <-ctx.Done():
					return
				case <-deadline.C:
					return
				case <-tick.C:
				}
				batch := make([]chain.Transaction, 0, cfg.Batch)
				for len(batch) < cfg.Batch {
					batch = append(batch, txs[pos%len(txs)])
					pos++
				}
				requests.Add(1)
				txsOffered.Add(int64(len(batch)))
				ok, _, err := target.SubmitTxs(source, batch)
				switch {
				case err != nil:
					errs.Add(1)
				case ok:
					accepted.Add(1)
					txsAccepted.Add(int64(len(batch)))
				default:
					shed.Add(1)
				}
			}
		}(c, rng.Split())
	}
	wg.Wait()

	return Stats{
		Requests:    requests.Load(),
		Accepted:    accepted.Load(),
		Shed:        shed.Load(),
		Errors:      errs.Load(),
		TxsOffered:  txsOffered.Load(),
		TxsAccepted: txsAccepted.Load(),
	}, nil
}
