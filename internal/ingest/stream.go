package ingest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/epoch"
	"mvcom/internal/obs"
)

// StreamConfig parameterizes a NetStream.
type StreamConfig struct {
	// Committees is read by nothing: Fill spreads each flush over
	// whatever committees the epoch's reports name. It stays only while
	// the benchmark module's plane (benchmark/plane.go) still sets it.
	Committees int
	// Params are the scheduling parameters handed to every epoch.
	Params epoch.EpochParams
	// QueueTxs is the queue high-watermark in transactions: submissions
	// that would push past it are shed with reason "queue". <= 0
	// defaults to DefaultQueueTxs.
	QueueTxs int
	// Rate and Burst configure the per-source token buckets (tx/s and
	// txs); Rate <= 0 disables rate limiting.
	Rate, Burst float64
	// MinBatchTxs flushes an epoch as soon as the queue holds this many
	// transactions (<= 0 defaults to 1: any traffic starts an epoch).
	MinBatchTxs int
	// MaxWait bounds how long NextContext waits for traffic before
	// flushing whatever is there — possibly nothing, which runs a quiet
	// epoch and keeps the chain and the metrics ticking. <= 0 defaults
	// to 250ms.
	MaxWait time.Duration
	// MaxEpochs, when positive, ends the stream cleanly after that many
	// epochs (tests and bounded runs).
	MaxEpochs int
	// Obs receives the mvcom_serve_* instruments and ingest trace
	// events; nil is off.
	Obs *obs.ServeObserver
}

// DefaultQueueTxs is the queue high-watermark when StreamConfig.QueueTxs
// is <= 0.
const DefaultQueueTxs = 65536

func (c StreamConfig) withDefaults() StreamConfig {
	if c.QueueTxs <= 0 {
		c.QueueTxs = DefaultQueueTxs
	}
	if c.MinBatchTxs <= 0 {
		c.MinBatchTxs = 1
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	return c
}

// NetStream bridges the network front ends to epoch.Pipeline.Serve. The
// front ends call SubmitCount (in-process callers Submit) from many
// goroutines; the serve goroutine calls NextContext and Deliver
// (epoch.EpochStream) and Fill (epoch.ShardSupply). The queue is a
// count of admitted transactions: shards are header-only (a block
// commits to each shard's TxCount), so the flush that hands the count
// to the coming epoch needs no per-transaction state, and admission and
// flush are O(1).
type NetStream struct {
	cfg     StreamConfig
	queued  atomic.Int64 // admitted txs not yet flushed, <= QueueTxs
	buckets *Buckets
	wake    chan struct{}

	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}

	// Counters shared with the front ends (Stats snapshots).
	requests, accepted, acceptedTxs atomic.Int64
	shedRate, shedQueue, shedBody   atomic.Int64
	shedDrain, shedInvalid, shedTxs atomic.Int64
	committedTxs, expiredTxs        atomic.Int64
	outstandingTxs, assignedTxs     atomic.Int64
	epochs, accountingErrors        atomic.Int64

	// Epoch-goroutine state (only touched by NextContext/Fill/Deliver).
	batchTxs    int // queue txs flushed into the in-flight epoch
	served      int
	drainEpochs int
	finished    bool
	span        *obs.Span
}

// drainEpochCap bounds how many epochs a graceful drain runs to settle
// the deferral backlog before abandoning the remainder as expired. The
// backlog normally settles within MaxDeferrals+1 epochs; the cap exists
// for unbounded-deferral configurations where a scheduler could refuse
// the same shard forever.
const drainEpochCap = 64

var (
	_ epoch.EpochStream = (*NetStream)(nil)
	_ epoch.ShardSupply = (*NetStream)(nil)
)

// NewStream returns a NetStream ready to serve.
func NewStream(cfg StreamConfig) *NetStream {
	cfg = cfg.withDefaults()
	return &NetStream{
		cfg:     cfg,
		buckets: NewBuckets(cfg.Rate, cfg.Burst),
		wake:    make(chan struct{}, 1),
		drainCh: make(chan struct{}),
	}
}

// Submit runs a transaction batch through admission. It returns "" when
// the batch was admitted into the queue, else the shed reason ("drain",
// "rate", "queue", "invalid").
func (s *NetStream) Submit(source string, txs []chain.Transaction) string {
	return s.SubmitCount(source, len(txs))
}

// SubmitCount is Submit for a batch of count transactions the caller
// has counted but not built: the queue keeps only the count, so the wire
// front ends admit a recognized body without decoding it.
func (s *NetStream) SubmitCount(source string, count int) string {
	s.requests.Add(1)
	s.cfg.Obs.RequestSeen()
	if count <= 0 {
		return s.shed("invalid", 0)
	}
	if s.draining.Load() {
		return s.shed("drain", count)
	}
	if !s.buckets.Allow(source, count) {
		return s.shed("rate", count)
	}
	// The watermark check and the add are one compare-and-swap, so
	// concurrent producers cannot push the queue past QueueTxs.
	n := int64(count)
	queued := s.queued.Load()
	for {
		if queued+n > int64(s.cfg.QueueTxs) {
			return s.shed("queue", count)
		}
		if s.queued.CompareAndSwap(queued, queued+n) {
			break
		}
		queued = s.queued.Load()
	}
	s.accepted.Add(1)
	s.acceptedTxs.Add(n)
	s.cfg.Obs.RequestAccepted(count)
	s.cfg.Obs.SetQueueTxs(int(queued + n))
	s.wakeUp()
	return ""
}

// Drain switches the stream into graceful-drain mode: new traffic is
// shed with reason "drain", the queue flushes into a final run of
// epochs that settles the deferral backlog, and the stream then ends
// cleanly so Serve returns nil with every admitted transaction settled.
func (s *NetStream) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Stats snapshots the accounting counters.
func (s *NetStream) Stats() Stats {
	return Stats{
		Requests:         s.requests.Load(),
		Accepted:         s.accepted.Load(),
		AcceptedTxs:      s.acceptedTxs.Load(),
		ShedRate:         s.shedRate.Load(),
		ShedQueue:        s.shedQueue.Load(),
		ShedBody:         s.shedBody.Load(),
		ShedDrain:        s.shedDrain.Load(),
		ShedInvalid:      s.shedInvalid.Load(),
		ShedTxs:          s.shedTxs.Load(),
		CommittedTxs:     s.committedTxs.Load(),
		ExpiredTxs:       s.expiredTxs.Load(),
		OutstandingTxs:   s.outstandingTxs.Load(),
		QueueTxs:         s.queued.Load(),
		AssignedTxs:      s.assignedTxs.Load(),
		Epochs:           s.epochs.Load(),
		Draining:         s.draining.Load(),
		AccountingErrors: s.accountingErrors.Load(),
	}
}

// ShedBody counts an oversized-body rejection (the front ends detect it
// at the HTTP/codec layer, before a batch exists).
func (s *NetStream) ShedBody() string {
	s.requests.Add(1)
	s.cfg.Obs.RequestSeen()
	return s.shed("body", 0)
}

// ShedInvalid counts a request refused before it carries a batch: a
// malformed body or frame, or a frame type other than "txs".
func (s *NetStream) ShedInvalid() string {
	s.requests.Add(1)
	s.cfg.Obs.RequestSeen()
	return s.shed("invalid", 0)
}

func (s *NetStream) shed(reason string, txs int) string {
	switch reason {
	case "rate":
		s.shedRate.Add(1)
	case "queue":
		s.shedQueue.Add(1)
	case "body":
		s.shedBody.Add(1)
	case "drain":
		s.shedDrain.Add(1)
	default:
		s.shedInvalid.Add(1)
	}
	if txs > 0 {
		s.shedTxs.Add(int64(txs))
	}
	s.cfg.Obs.RequestShed(reason, txs)
	return reason
}

func (s *NetStream) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// NextContext implements epoch.EpochStream: it blocks until the queue
// reaches MinBatchTxs, MaxWait elapses, the stream drains, or ctx is
// canceled, then flushes the queued transactions into the coming epoch.
func (s *NetStream) NextContext(ctx context.Context, epochN int) (epoch.EpochParams, bool) {
	if s.finished || (s.cfg.MaxEpochs > 0 && s.served >= s.cfg.MaxEpochs) {
		return epoch.EpochParams{}, false
	}
	timer := time.NewTimer(s.cfg.MaxWait)
	defer timer.Stop()
	expired := false
	for {
		if s.draining.Load() {
			// Drain epochs run until everything admitted has settled:
			// the first flushes the queue in, and the rest give the
			// deferral backlog epochs to commit or expire via
			// MaxDeferrals.
			if s.queued.Load() == 0 && s.outstandingTxs.Load() == 0 {
				s.finished = true
				return epoch.EpochParams{}, false
			}
			if s.drainEpochs >= drainEpochCap {
				// A scheduler that defers the same shards forever would
				// hold the drain open; abandon the backlog as expired.
				if left := s.outstandingTxs.Swap(0); left > 0 {
					s.expiredTxs.Add(left)
					s.cfg.Obs.Delivered(0, int(left), 0)
				}
				s.finished = true
				return epoch.EpochParams{}, false
			}
			s.drainEpochs++
			s.flush(true)
			s.served++
			return s.cfg.Params, true
		}
		if s.queued.Load() >= int64(s.cfg.MinBatchTxs) || expired {
			s.flush(false)
			s.served++
			return s.cfg.Params, true
		}
		select {
		case <-s.wake:
		case <-timer.C:
			expired = true
		case <-s.drainCh:
		case <-ctx.Done():
			return epoch.EpochParams{}, false
		}
	}
}

// flush moves the queued transactions into the in-flight epoch's fill
// plan. Runs on the epoch goroutine only.
func (s *NetStream) flush(draining bool) {
	s.batchTxs = int(s.queued.Swap(0))
	s.assignedTxs.Add(int64(s.batchTxs))

	s.cfg.Obs.SetQueueTxs(int(s.queued.Load()))
	s.cfg.Obs.BatchFlushed(s.batchTxs)
	if draining {
		s.cfg.Obs.DrainFlushed(s.batchTxs)
	}
	s.span = s.cfg.Obs.TraceCtx().StartRoot("ingest-batch", "ingest")
}

// Fill implements epoch.ShardSupply: the flushed queue transactions are
// spread round-robin over the epoch's fresh committees. Runs on the
// epoch goroutine only.
func (s *NetStream) Fill(epochN int, reports []epoch.CommitteeReport) {
	if len(reports) == 0 {
		return
	}
	base, rem := s.batchTxs/len(reports), s.batchTxs%len(reports)
	for i := range reports {
		reports[i].TxCount = base
		if i < rem {
			reports[i].TxCount++
		}
	}
}

// Deliver implements epoch.EpochStream: it settles the epoch's books.
// Every transaction assigned into the epoch (plus the deferral backlog
// carried in) ends up committed, still deferred (outstanding), or
// expired; a negative residue marks an accounting bug the gates fail
// on. Runs on the epoch goroutine only.
func (s *NetStream) Deliver(res *epoch.Result) error {
	committed := 0
	for li, ri := range res.Live {
		if li < len(res.Solution.Selected) && res.Solution.Selected[li] {
			committed += res.Reports[ri].TxCount
		}
	}
	deferred := 0
	for _, rep := range res.Deferred {
		deferred += rep.TxCount
	}
	prevOutstanding := s.outstandingTxs.Load()
	assigned := s.assignedTxs.Swap(0)
	expired := prevOutstanding + assigned - int64(committed) - int64(deferred)
	if expired < 0 {
		s.accountingErrors.Add(1)
		expired = 0
	}
	s.outstandingTxs.Store(int64(deferred))
	s.committedTxs.Add(int64(committed))
	s.expiredTxs.Add(expired)
	s.epochs.Add(1)
	s.cfg.Obs.Delivered(committed, int(expired), deferred)
	if s.span != nil {
		s.span.Finish()
		s.span = nil
	}
	return nil
}
