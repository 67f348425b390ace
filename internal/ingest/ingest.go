// Package ingest is the networked serving plane: it accepts transaction
// batches over HTTP/JSON and a framed-TCP codec, batches them into
// epochs through a bounded queue, and applies admission control —
// per-source token buckets, body-size caps, and a queue high-watermark
// that sheds with 429 + Retry-After instead of growing the heap.
// NetStream bridges the front ends to epoch.Pipeline.Serve: it
// implements epoch.EpochStream (cancellable blocking NextContext) and
// epoch.ShardSupply (real ingested demand replaces the synthetic
// trace's shard sizes), and settles every admitted transaction as
// committed, expired, or still outstanding after each epoch — the
// accounting the serve gates check.
package ingest

// Stats is an atomic snapshot of the serving plane's accounting. Every
// admitted transaction is in exactly one bucket on the right-hand side
// of the identity
//
//	AcceptedTxs == CommittedTxs + ExpiredTxs + OutstandingTxs +
//	    QueueTxs + AssignedTxs
//
// and after a graceful drain the last three terms are zero: everything
// ever admitted has settled as committed or expired.
type Stats struct {
	// Requests counts ingest requests seen before admission; Accepted
	// those admitted (AcceptedTxs their transactions).
	Requests    int64 `json:"requests"`
	Accepted    int64 `json:"accepted"`
	AcceptedTxs int64 `json:"acceptedTxs"`
	// Shed* count refused requests by reason; ShedTxs the transactions
	// they carried.
	ShedRate    int64 `json:"shedRate"`
	ShedQueue   int64 `json:"shedQueue"`
	ShedBody    int64 `json:"shedBody"`
	ShedDrain   int64 `json:"shedDrain"`
	ShedInvalid int64 `json:"shedInvalid"`
	ShedTxs     int64 `json:"shedTxs"`
	// Settlement: committed into final blocks, expired by the deferral
	// bound, outstanding in the deferral backlog, queued awaiting a
	// flush, or assigned to the in-flight epoch.
	CommittedTxs   int64 `json:"committedTxs"`
	ExpiredTxs     int64 `json:"expiredTxs"`
	OutstandingTxs int64 `json:"outstandingTxs"`
	QueueTxs       int64 `json:"queueTxs"`
	AssignedTxs    int64 `json:"assignedTxs"`
	// Epochs counts delivered epochs; Draining reports drain mode;
	// AccountingErrors counts epochs whose settlement identity went
	// negative (a bug — the serve gates fail on it).
	Epochs           int64 `json:"epochs"`
	Draining         bool  `json:"draining"`
	AccountingErrors int64 `json:"accountingErrors"`
}

// Shed sums the shed-request counts across reasons.
func (s Stats) Shed() int64 {
	return s.ShedRate + s.ShedQueue + s.ShedBody + s.ShedDrain + s.ShedInvalid
}

// Unsettled sums the not-yet-final buckets; zero after a graceful drain.
func (s Stats) Unsettled() int64 {
	return s.OutstandingTxs + s.QueueTxs + s.AssignedTxs
}

// AccountingGap is admitted minus settled transactions; zero when the
// identity holds.
func (s Stats) AccountingGap() int64 {
	return s.AcceptedTxs - (s.CommittedTxs + s.ExpiredTxs + s.Unsettled())
}
