package ingest

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/epoch"
	"mvcom/internal/obs"
	"mvcom/internal/txpool"
)

// StreamConfig parameterizes a NetStream.
type StreamConfig struct {
	// Committees must match the pipeline's committee count; wire reports
	// naming a committee outside [0, Committees) are shed as invalid,
	// which also bounds the pending-report map.
	Committees int
	// Params are the scheduling parameters handed to every epoch.
	Params epoch.EpochParams
	// QueueTxs is the queue high-watermark in transactions: submissions
	// that would push past it are shed with reason "queue". <= 0
	// defaults to 65536.
	QueueTxs int
	// Rate and Burst configure the per-source token buckets (tx/s and
	// txs); Rate <= 0 disables rate limiting. MaxSources bounds the
	// bucket map (default 1024).
	Rate, Burst float64
	MaxSources  int
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
	// OnDeliver, when non-nil, runs after each epoch's settlement
	// accounting with the delivered result (still pipeline-owned
	// scratch — copy to keep).
	OnDeliver func(*epoch.Result)
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.QueueTxs <= 0 {
		c.QueueTxs = 65536
	}
	if c.MinBatchTxs <= 0 {
		c.MinBatchTxs = 1
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	return c
}

// drainAll is the "drain everything regardless of Created" horizon.
const drainAll = time.Duration(1) << 62

// NetStream bridges the network front ends to epoch.Pipeline.Serve. The
// front ends call Submit/SubmitReport from many goroutines; the serve
// goroutine calls NextContext and Deliver (epoch.EpochStream) and Fill
// (epoch.ShardSupply). Admitted transactions wait in a
// bounded synchronized pool; each flush drains them into the coming
// epoch and settles the previous books.
type NetStream struct {
	cfg     StreamConfig
	queue   *txpool.SyncPool
	buckets *Buckets
	wake    chan struct{}

	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}

	repMu      sync.Mutex
	pendingRep map[int]Report
	pendingTxs atomic.Int64

	// Counters shared with the front ends (Stats snapshots).
	requests, accepted, acceptedTxs atomic.Int64
	reports, reportTxs              atomic.Int64
	shedRate, shedQueue, shedBody   atomic.Int64
	shedDrain, shedInvalid, shedTxs atomic.Int64
	committedTxs, expiredTxs        atomic.Int64
	outstandingTxs, assignedTxs     atomic.Int64
	epochs, accountingErrors        atomic.Int64

	// Epoch-goroutine state (only touched by NextContext/Fill/Deliver).
	batch       []chain.Transaction
	fillRep     []Report // snapshot of pending reports for the in-flight epoch
	batchTxs    int      // queue txs flushed into the in-flight epoch
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
		cfg:        cfg,
		queue:      txpool.NewSync(),
		buckets:    NewBuckets(cfg.Rate, cfg.Burst, cfg.MaxSources),
		wake:       make(chan struct{}, 1),
		drainCh:    make(chan struct{}),
		pendingRep: make(map[int]Report),
	}
}

// Buckets exposes the admission buckets (tests override the clock).
func (s *NetStream) Buckets() *Buckets { return s.buckets }

// Submit runs a transaction batch through admission. It returns "" when
// the batch was admitted into the queue, else the shed reason ("drain",
// "rate", "queue", "invalid").
func (s *NetStream) Submit(source string, txs []chain.Transaction) string {
	s.requests.Add(1)
	s.cfg.Obs.RequestSeen()
	if len(txs) == 0 {
		return s.shed("invalid", 0)
	}
	if s.draining.Load() {
		return s.shed("drain", len(txs))
	}
	if !s.buckets.Allow(source, len(txs)) {
		return s.shed("rate", len(txs))
	}
	if !s.queue.TryAddBatch(txs, s.cfg.QueueTxs) {
		return s.shed("queue", len(txs))
	}
	s.accepted.Add(1)
	s.acceptedTxs.Add(int64(len(txs)))
	s.cfg.Obs.RequestAccepted(len(txs))
	s.cfg.Obs.SetQueueTxs(s.queue.Len())
	s.wakeUp()
	return ""
}

// SubmitReport runs a shard report through admission. Reports bypass
// the queue watermark (they are O(1) pending state per committee, not
// per-tx heap) but still pay token-bucket tokens for the transactions
// they declare.
func (s *NetStream) SubmitReport(source string, rep Report) string {
	s.requests.Add(1)
	s.cfg.Obs.RequestSeen()
	if rep.Committee < 0 || rep.Committee >= s.cfg.Committees || rep.TxCount < 0 || rep.Latency < 0 {
		return s.shed("invalid", rep.TxCount)
	}
	if s.draining.Load() {
		return s.shed("drain", rep.TxCount)
	}
	if !s.buckets.Allow(source, rep.TxCount) {
		return s.shed("rate", rep.TxCount)
	}
	s.repMu.Lock()
	cur := s.pendingRep[rep.Committee]
	cur.Committee = rep.Committee
	cur.TxCount += rep.TxCount
	if rep.Latency > 0 {
		cur.Latency = rep.Latency
	}
	s.pendingRep[rep.Committee] = cur
	s.repMu.Unlock()
	s.pendingTxs.Add(int64(rep.TxCount))
	s.reports.Add(1)
	s.reportTxs.Add(int64(rep.TxCount))
	s.cfg.Obs.ReportAccepted(rep.TxCount)
	s.wakeUp()
	return ""
}

// Drain switches the stream into graceful-drain mode: new traffic is
// shed with reason "drain", the queue and pending reports flush into a
// final run of epochs that settles the deferral backlog, and the stream
// then ends cleanly so Serve returns nil with every admitted
// transaction settled.
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
		Reports:          s.reports.Load(),
		ReportTxs:        s.reportTxs.Load(),
		ShedRate:         s.shedRate.Load(),
		ShedQueue:        s.shedQueue.Load(),
		ShedBody:         s.shedBody.Load(),
		ShedDrain:        s.shedDrain.Load(),
		ShedInvalid:      s.shedInvalid.Load(),
		ShedTxs:          s.shedTxs.Load(),
		CommittedTxs:     s.committedTxs.Load(),
		ExpiredTxs:       s.expiredTxs.Load(),
		OutstandingTxs:   s.outstandingTxs.Load(),
		QueueTxs:         int64(s.queue.Len()),
		PendingReportTxs: s.pendingTxs.Load(),
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
// canceled, then flushes the pending traffic into the coming epoch.
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
			// the first flushes the queue and pending reports in, and
			// the rest give the deferral backlog epochs to commit or
			// expire via MaxDeferrals.
			if s.queue.Len() == 0 && s.pendingTxs.Load() == 0 && s.outstandingTxs.Load() == 0 {
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
		if s.queue.Len() >= s.cfg.MinBatchTxs || expired {
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

// flush moves the queued transactions and pending reports into the
// in-flight epoch's fill plan. Runs on the epoch goroutine only.
func (s *NetStream) flush(draining bool) {
	s.batch = s.queue.DrainArrivedInto(s.batch[:0], drainAll, 0)
	s.batchTxs = len(s.batch)

	s.fillRep = s.fillRep[:0]
	s.repMu.Lock()
	for _, rep := range s.pendingRep {
		s.fillRep = append(s.fillRep, rep)
	}
	for c := range s.pendingRep {
		delete(s.pendingRep, c)
	}
	s.repMu.Unlock()
	repTxs := 0
	for _, rep := range s.fillRep {
		repTxs += rep.TxCount
	}
	s.pendingTxs.Add(int64(-repTxs))
	s.assignedTxs.Add(int64(s.batchTxs + repTxs))

	s.cfg.Obs.SetQueueTxs(s.queue.Len())
	s.cfg.Obs.BatchFlushed(s.batchTxs + repTxs)
	if draining {
		s.cfg.Obs.DrainFlushed(s.batchTxs + repTxs)
	}
	s.span = s.cfg.Obs.TraceCtx().StartRoot("ingest-batch", "ingest")
}

// Fill implements epoch.ShardSupply: the flushed queue transactions are
// spread round-robin over the epoch's fresh committees, and each wire
// report adds its declared count to (and may override the latency of)
// the committee it names. Runs on the epoch goroutine only.
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
	for _, rep := range s.fillRep {
		idx := -1
		for i := range reports {
			if reports[i].Committee == rep.Committee {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = rep.Committee % len(reports)
		}
		reports[idx].TxCount += rep.TxCount
		if rep.Latency > 0 {
			lat := time.Duration(rep.Latency * float64(time.Second))
			reports[idx].Formation = lat
			reports[idx].Consensus = 0
			reports[idx].TwoPhase = lat
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
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(res)
	}
	return nil
}
