package obs

import (
	"fmt"
	"sync"
)

// SEObserver groups the instruments of the Stochastic-Exploration kernel
// (internal/core). The kernel accumulates plain per-explorer tallies in
// its hot loop and flushes them here only at segment merges, so the
// atomic instruments are touched once per ~64 rounds, not per round.
// A nil *SEObserver is fully inert.
type SEObserver struct {
	// Rounds counts transition rounds advanced by the coordinator.
	Rounds *Counter
	// ExplorerRounds counts per-explorer rounds (Rounds × Γ).
	ExplorerRounds *Counter
	// Swaps counts accepted swap transitions (State Transit executions).
	Swaps *Counter
	// Resets counts RESET broadcasts (full timer re-arms, Alg. 1 l. 19).
	Resets *Counter
	// Merges counts explorer-segment merges at kernel sync points.
	Merges *Counter
	// Improvements counts global-best improvements adopted at merges.
	Improvements *Counter
	// Joins and Leaves count dynamic candidate events applied.
	Joins  *Counter
	Leaves *Counter
	// ProposalsStarved counts rounds where no thread had an armed swap
	// proposal (every Set-timer draw exhausted SwapRetries), so the race
	// degenerated into a bare re-arm.
	ProposalsStarved *Counter
	// RaceErrors counts timer races that failed to pick a winner
	// (weighted-pick error / non-finite weight mass) and fell through to
	// a re-arm.
	RaceErrors *Counter
	// BestUtility tracks the current global best utility.
	BestUtility *Gauge
	// Trace receives EvSERound / EvSwapAccept / EvReset /
	// EvSegmentMerge / EvShardJoin / EvShardLeave events.
	Trace *Tracer
}

// NewSEObserver registers the SE kernel instruments on reg; returns nil
// (inert) when reg is nil.
func NewSEObserver(reg *Registry) *SEObserver {
	if reg == nil {
		return nil
	}
	return &SEObserver{
		Rounds:           reg.Counter("mvcom_se_rounds_total", "SE transition rounds advanced"),
		ExplorerRounds:   reg.Counter("mvcom_se_explorer_rounds_total", "per-explorer SE rounds advanced (rounds x gamma)"),
		Swaps:            reg.Counter("mvcom_se_swaps_total", "accepted swap transitions"),
		Resets:           reg.Counter("mvcom_se_resets_total", "RESET broadcasts re-arming solution threads"),
		Merges:           reg.Counter("mvcom_se_segment_merges_total", "explorer-segment merges at sync points"),
		Improvements:     reg.Counter("mvcom_se_improvements_total", "global-best improvements adopted"),
		Joins:            reg.Counter("mvcom_se_events_total{kind=\"join\"}", "dynamic candidate events applied"),
		Leaves:           reg.Counter("mvcom_se_events_total{kind=\"leave\"}", "dynamic candidate events applied"),
		ProposalsStarved: reg.Counter("mvcom_se_proposals_starved", "rounds with no armed swap proposal (Set-timer retries exhausted)"),
		RaceErrors:       reg.Counter("mvcom_se_race_errors", "timer races that failed to pick a winner"),
		BestUtility:      reg.Gauge("mvcom_se_best_utility", "current global best utility"),
		Trace:            reg.Tracer(),
	}
}

// DistObserver groups the instruments of the distributed protocol
// (internal/dist), shared by the codec, coordinator, and worker of one
// role. A nil *DistObserver is fully inert.
type DistObserver struct {
	reg  *Registry
	role string

	// WorkersConnected gauges how many workers the coordinator accepted.
	WorkersConnected *Gauge
	// QueueDepth gauges the worker's pending control-message queue.
	QueueDepth *Gauge
	// TaskLatency observes task-dispatch-to-result seconds per worker.
	TaskLatency *Histogram
	// TaskErrors counts worker tasks that ended in an error, and task
	// results the coordinator rejected on verification.
	TaskErrors *Counter
	// BestUtility tracks the session's best reported utility.
	BestUtility *Gauge
	// BestThreadN tracks the solution-thread cardinality n of the best
	// reported solution — which thread f_n is winning across the fleet.
	BestThreadN *Gauge
	// FaultsInjected counts fault-injection decisions that fired at any
	// of this role's fault points.
	FaultsInjected *Counter
	// Reconnects counts worker sessions re-dialed after a lost
	// connection (backoff retries).
	Reconnects *Counter
	// TasksReassigned counts orphaned tasks the coordinator re-dispatched
	// to a surviving or reconnected worker.
	TasksReassigned *Counter
	// TasksAbandoned counts tasks dropped after exhausting the per-task
	// attempt cap with no worker left to run them.
	TasksAbandoned *Counter
	// LocalFallbacks counts sessions that degraded to an in-process
	// solve because no worker delivered a usable result.
	LocalFallbacks *Counter
	// ClockOffset gauges this process's latest estimated clock offset
	// against the coordinator's reference clock, in seconds.
	ClockOffset *Gauge
	// Trace receives EvDistSend / EvDistRecv / EvDistTaskError /
	// EvDistFault / EvDistRetry / EvClockSync events plus the span
	// begin/end pairs of the dist causal-tracing layer.
	Trace *Tracer

	sent, recv sync.Map // message type -> *Counter
}

// NewDistObserver registers the dist protocol instruments on reg for the
// given role ("coordinator" or "worker"); returns nil when reg is nil.
func NewDistObserver(reg *Registry, role string) *DistObserver {
	if reg == nil {
		return nil
	}
	return &DistObserver{
		reg:              reg,
		role:             role,
		WorkersConnected: reg.Gauge("mvcom_dist_workers_connected", "workers accepted by the coordinator"),
		QueueDepth:       reg.Gauge("mvcom_dist_ctrl_queue_depth{role=\""+role+"\"}", "pending control messages on the worker loop"),
		TaskLatency:      reg.Histogram("mvcom_dist_task_seconds", "task dispatch to final result, seconds", ExponentialBuckets(0.01, 2, 14)),
		TaskErrors:       reg.Counter("mvcom_dist_task_errors_total", "worker tasks that ended in an error or whose result failed verification"),
		BestUtility:      reg.Gauge("mvcom_dist_best_utility", "best utility reported in the session"),
		BestThreadN:      reg.Gauge("mvcom_dist_best_thread_n", "solution-thread cardinality of the session's best solution"),
		FaultsInjected:   reg.Counter("mvcom_dist_faults_injected_total{role=\""+role+"\"}", "injected faults fired at this role's fault points"),
		Reconnects:       reg.Counter("mvcom_dist_reconnects_total", "worker sessions re-dialed after a lost connection"),
		TasksReassigned:  reg.Counter("mvcom_dist_tasks_reassigned_total", "orphaned tasks re-dispatched to another worker"),
		TasksAbandoned:   reg.Counter("mvcom_dist_tasks_abandoned_total", "tasks dropped after exhausting the attempt cap"),
		LocalFallbacks:   reg.Counter("mvcom_dist_local_fallbacks_total", "sessions degraded to an in-process solve"),
		ClockOffset:      reg.Gauge("mvcom_dist_clock_offset_seconds{role=\""+role+"\"}", "estimated clock offset vs the coordinator's reference clock"),
		Trace:            reg.Tracer(),
	}
}

// TraceCtx returns the registry's span allocator so dist call sites can
// open causal spans; nil observer returns the inert nil allocator.
func (o *DistObserver) TraceCtx() *TraceContext {
	if o == nil {
		return nil
	}
	return o.reg.TraceContext()
}

// ClockSynced records one NTP-style clock-offset estimate: offsetSec is
// the seconds to add to this process's timestamps to land on the
// coordinator's clock, rttSec the measured round trip. No-op on a nil
// observer.
func (o *DistObserver) ClockSynced(worker string, offsetSec, rttSec float64) {
	if o == nil {
		return
	}
	o.ClockOffset.Set(offsetSec)
	o.Trace.Emit(EvClockSync, worker, offsetSec, fmt.Sprintf("rtt=%.6fs", rttSec))
}

// FaultInjected records one fault-injection firing at a named point.
// No-op on a nil observer.
func (o *DistObserver) FaultInjected(point, action string) {
	if o == nil {
		return
	}
	o.FaultsInjected.Inc()
	o.Trace.Emit(EvDistFault, point, 0, action)
}

// WorkerReconnected records one backoff re-dial of a lost session, with
// the attempt number about to be made. No-op on a nil observer.
func (o *DistObserver) WorkerReconnected(worker string, attempt int) {
	if o == nil {
		return
	}
	o.Reconnects.Inc()
	o.Trace.Emit(EvDistRetry, worker, float64(attempt), "reconnect")
}

// TaskReassigned records an orphaned task being re-dispatched with the
// given attempt number. No-op on a nil observer.
func (o *DistObserver) TaskReassigned(taskID string, attempt int) {
	if o == nil {
		return
	}
	o.TasksReassigned.Inc()
	o.Trace.Emit(EvDistRetry, taskID, float64(attempt), "reassign")
}

// TaskAbandoned records a task dropped after its attempt cap. No-op on a
// nil observer.
func (o *DistObserver) TaskAbandoned(taskID string, attempt int) {
	if o == nil {
		return
	}
	o.TasksAbandoned.Inc()
	o.Trace.Emit(EvDistRetry, taskID, float64(attempt), "abandon")
}

// LocalFallbackUsed records a graceful degradation to an in-process
// solve. No-op on a nil observer.
func (o *DistObserver) LocalFallbackUsed() {
	if o == nil {
		return
	}
	o.LocalFallbacks.Inc()
	o.Trace.Emit(EvDistRetry, "coordinator", 0, "local-fallback")
}

// SetWorkersConnected records the coordinator's accepted-worker count.
// No-op on a nil observer.
func (o *DistObserver) SetWorkersConnected(n int) {
	if o == nil {
		return
	}
	o.WorkersConnected.Set(float64(n))
}

// ObserveTaskLatency records one task's dispatch-to-result latency in
// seconds. No-op on a nil observer.
func (o *DistObserver) ObserveTaskLatency(seconds float64) {
	if o == nil {
		return
	}
	o.TaskLatency.Observe(seconds)
}

// TaskFailed counts a task error and traces it. No-op on a nil observer.
func (o *DistObserver) TaskFailed(actor, detail string) {
	if o == nil {
		return
	}
	o.TaskErrors.Inc()
	o.Trace.Emit(EvDistTaskError, actor, 0, detail)
}

// SetBestUtility records the session's best reported utility. No-op on
// a nil observer.
func (o *DistObserver) SetBestUtility(u float64) {
	if o == nil {
		return
	}
	o.BestUtility.Set(u)
}

// SetBestThreadN records the cardinality of the session's best solution.
// No-op on a nil observer.
func (o *DistObserver) SetBestThreadN(n int) {
	if o == nil {
		return
	}
	o.BestThreadN.Set(float64(n))
}

// SetQueueDepth records the worker's pending control-queue depth. No-op
// on a nil observer.
func (o *DistObserver) SetQueueDepth(n int) {
	if o == nil {
		return
	}
	o.QueueDepth.Set(float64(n))
}

// MsgSent counts one protocol message sent, labeled by type and role.
func (o *DistObserver) MsgSent(msgType string) {
	if o == nil {
		return
	}
	o.msgCounter(&o.sent, "tx", msgType).Inc()
	o.Trace.Emit(EvDistSend, o.role, 0, msgType)
}

// MsgRecv counts one protocol message received, labeled by type and role.
func (o *DistObserver) MsgRecv(msgType string) {
	if o == nil {
		return
	}
	o.msgCounter(&o.recv, "rx", msgType).Inc()
	o.Trace.Emit(EvDistRecv, o.role, 0, msgType)
}

// msgCounter caches per-type counters so the registry lock is only taken
// the first time a message type appears.
func (o *DistObserver) msgCounter(cache *sync.Map, dir, msgType string) *Counter {
	if c, ok := cache.Load(msgType); ok {
		return c.(*Counter)
	}
	name := "mvcom_dist_messages_total{role=\"" + o.role + "\",dir=\"" + dir + "\",type=\"" + msgType + "\"}"
	c := o.reg.Counter(name, "dist protocol messages by role, direction, and type")
	cache.Store(msgType, c)
	return c
}

// EpochObserver groups the instruments of the epoch pipeline
// (internal/epoch): per-committee latency histograms, the cumulative-age
// gauge matching the paper's Π_i term, and phase-transition trace
// events. A nil *EpochObserver is fully inert.
type EpochObserver struct {
	reg *Registry

	// Epochs counts completed epochs.
	Epochs *Counter
	// Formation, Consensus, and TwoPhase observe per-committee stage
	// latencies in seconds (l_i breakdown).
	Formation *Histogram
	Consensus *Histogram
	TwoPhase  *Histogram
	// ShardAge observes each permitted shard's age t_j − l_i at
	// final-block inclusion, in seconds.
	ShardAge *Histogram
	// CumulativeAge gauges the latest epoch's Σ x_i (t_j − l_i) — the
	// Π_i accounting term of the valuable-degree metric.
	CumulativeAge *Gauge
	// E2E observes the wall-clock end-to-end latency of one epoch run
	// (report collection through commit) — the SLO surface a serving
	// loop gates on. Distinct from Formation/Consensus/TwoPhase, which
	// measure the paper's *virtual*-clock committee latencies.
	E2E *Histogram
	// PermittedTxs and PermittedCommittees count the scheduling output;
	// DeferredCommittees counts refusals carried to the next epoch;
	// FailedCommittees counts confirmed mid-epoch failures;
	// PresolvedShards counts the arrived shards of negative value that
	// presolve took out of the scheduling instance.
	PermittedTxs        *Counter
	PermittedCommittees *Counter
	DeferredCommittees  *Counter
	FailedCommittees    *Counter
	PresolvedShards     *Counter
	// Trace receives EvShardAge and committee-fault EvDistFault events
	// plus the epoch pipeline's span begin/end pairs.
	Trace *Tracer

	phaseSeconds sync.Map // phase -> *Gauge mvcom_epoch_phase_seconds{phase=...}
}

// NewEpochObserver registers the epoch pipeline instruments on reg;
// returns nil when reg is nil.
func NewEpochObserver(reg *Registry) *EpochObserver {
	if reg == nil {
		return nil
	}
	latency := ExponentialBuckets(16, 2, 12) // 16 s .. 32768 s
	return &EpochObserver{
		reg:                 reg,
		Epochs:              reg.Counter("mvcom_epoch_total", "completed epochs"),
		Formation:           reg.Histogram("mvcom_epoch_formation_seconds", "committee formation latency (stages 1+2)", latency),
		Consensus:           reg.Histogram("mvcom_epoch_consensus_seconds", "intra-committee consensus latency (stage 3)", latency),
		TwoPhase:            reg.Histogram("mvcom_epoch_two_phase_seconds", "committee two-phase latency l_i", latency),
		ShardAge:            reg.Histogram("mvcom_epoch_shard_age_seconds", "permitted shard age t_j - l_i at inclusion", ExponentialBuckets(1, 2, 14)),
		CumulativeAge:       reg.Gauge("mvcom_epoch_cumulative_age_seconds", "latest epoch's cumulative permitted-shard age"),
		E2E:                 reg.Histogram("mvcom_epoch_e2e_seconds", "wall-clock end-to-end epoch latency", ExponentialBuckets(0.001, 2, 16)),
		PermittedTxs:        reg.Counter("mvcom_epoch_permitted_txs_total", "transactions permitted into final blocks"),
		PermittedCommittees: reg.Counter("mvcom_epoch_permitted_committees_total", "committees permitted into final blocks"),
		DeferredCommittees:  reg.Counter("mvcom_epoch_deferred_committees_total", "committees refused and deferred to the next epoch"),
		FailedCommittees:    reg.Counter("mvcom_epoch_failed_committees_total", "committees confirmed failed mid-epoch"),
		PresolvedShards:     reg.Counter("mvcom_epoch_presolved_shards_total", "arrived negative-value shards taken out of the scheduling instance before the solve"),
		Trace:               reg.Tracer(),
	}
}

// TraceCtx returns the registry's span allocator so the epoch pipeline
// can open causal spans; nil observer returns the inert nil allocator.
func (o *EpochObserver) TraceCtx() *TraceContext {
	if o == nil {
		return nil
	}
	return o.reg.TraceContext()
}

// ObserveE2E records one epoch's wall-clock end-to-end latency in
// seconds. No-op on a nil observer.
func (o *EpochObserver) ObserveE2E(seconds float64) {
	if o == nil {
		return
	}
	o.E2E.Observe(seconds)
}

// PhaseWall records one epoch phase's wall-clock duration — the
// per-phase SLO gauge. Gauges are registered lazily per phase and cached
// so the registry lock is only taken on the first sighting of each phase
// name. No-op on a nil observer.
func (o *EpochObserver) PhaseWall(phase string, seconds float64) {
	if o == nil {
		return
	}
	g, ok := o.phaseSeconds.Load(phase)
	if !ok {
		g = o.reg.Gauge("mvcom_epoch_phase_seconds{phase=\""+phase+"\"}", "wall-clock seconds spent in the epoch phase")
		o.phaseSeconds.Store(phase, g)
	}
	g.(*Gauge).Set(seconds)
}

// ServeObserver groups the instruments of the networked serving plane
// (internal/ingest, cmd/mvcom-serve): admission accounting (every
// request ends up accepted or shed, every transaction ends up committed,
// expired, queued, or shed), batch/queue depth, and ingest trace events.
// A nil *ServeObserver is fully inert.
type ServeObserver struct {
	reg *Registry

	// Requests counts ingest requests received on any front end (HTTP or
	// framed TCP), before admission.
	Requests *Counter
	// Accepted counts requests admitted into the ingest queue.
	Accepted *Counter
	// AcceptedTxs counts transactions admitted into the ingest queue.
	AcceptedTxs *Counter
	// CommittedTxs counts admitted transactions that reached a final
	// block; ExpiredTxs those dropped by the MaxDeferrals backlog bound.
	CommittedTxs *Counter
	ExpiredTxs   *Counter
	// Batches counts epoch batches flushed from the queue; BatchTxs
	// observes their sizes; Drains counts graceful drain flushes.
	Batches  *Counter
	BatchTxs *Histogram
	Drains   *Counter
	// QueueTxs gauges the current ingest-queue depth in transactions;
	// OutstandingTxs gauges admitted-but-not-yet-final transactions
	// (deferred backlog carried across epochs).
	QueueTxs       *Gauge
	OutstandingTxs *Gauge
	// DecodeFallbacks counts /txs bodies and framed lines the wire front
	// ends' recognizers declined, so encoding/json decoded them.
	DecodeFallbacks *Counter
	// Trace receives EvIngest events plus the serving plane's span
	// begin/end pairs.
	Trace *Tracer

	shed, shedTxs sync.Map // shed reason -> *Counter
}

// NewServeObserver registers the serving-plane instruments on reg;
// returns nil (inert) when reg is nil.
func NewServeObserver(reg *Registry) *ServeObserver {
	if reg == nil {
		return nil
	}
	return &ServeObserver{
		reg:             reg,
		Requests:        reg.Counter("mvcom_serve_requests_total", "ingest requests received before admission"),
		Accepted:        reg.Counter("mvcom_serve_accepted_total", "requests admitted into the ingest queue"),
		AcceptedTxs:     reg.Counter("mvcom_serve_accepted_txs_total", "transactions admitted into the ingest queue"),
		CommittedTxs:    reg.Counter("mvcom_serve_committed_txs_total", "admitted transactions that reached a final block"),
		ExpiredTxs:      reg.Counter("mvcom_serve_expired_txs_total", "admitted transactions dropped by the deferral bound"),
		Batches:         reg.Counter("mvcom_serve_batches_total", "epoch batches flushed from the ingest queue"),
		BatchTxs:        reg.Histogram("mvcom_serve_batch_txs", "transactions per flushed epoch batch", ExponentialBuckets(1, 2, 16)),
		Drains:          reg.Counter("mvcom_serve_drains_total", "graceful drain flushes"),
		QueueTxs:        reg.Gauge("mvcom_serve_queue_txs", "current ingest-queue depth in transactions"),
		OutstandingTxs:  reg.Gauge("mvcom_serve_outstanding_txs", "admitted transactions not yet final (deferred backlog)"),
		DecodeFallbacks: reg.Counter("mvcom_serve_decode_fallback_total", "txs bodies and frames the recognizer declined, decoded by encoding/json"),
		Trace:           reg.Tracer(),
	}
}

// TraceCtx returns the registry's span allocator so ingest call sites can
// open causal spans; nil observer returns the inert nil allocator.
func (o *ServeObserver) TraceCtx() *TraceContext {
	if o == nil {
		return nil
	}
	return o.reg.TraceContext()
}

// RequestSeen counts one pre-admission ingest request. No-op on nil.
func (o *ServeObserver) RequestSeen() {
	if o == nil {
		return
	}
	o.Requests.Inc()
}

// RequestAccepted counts one admitted request carrying txs transactions.
// No-op on nil.
func (o *ServeObserver) RequestAccepted(txs int) {
	if o == nil {
		return
	}
	o.Accepted.Inc()
	if txs > 0 {
		o.AcceptedTxs.Add(int64(txs))
	}
}

// RequestShed counts one shed request and the transactions it carried,
// labeled by reason ("rate", "queue", "body", "drain", "invalid").
// No-op on nil.
func (o *ServeObserver) RequestShed(reason string, txs int) {
	if o == nil {
		return
	}
	o.shedCounter(&o.shed, "mvcom_serve_shed_total", "requests shed by admission control, by reason", reason).Inc()
	if txs > 0 {
		o.shedCounter(&o.shedTxs, "mvcom_serve_shed_txs_total", "transactions shed by admission control, by reason", reason).Add(int64(txs))
	}
	o.Trace.Emit(EvIngest, "ingest", float64(txs), shedDetail(reason))
}

// shedDetail is a shed event's Detail, "shed:<reason>": a constant for
// each reason the ingest stream sheds with, so refusing a request
// allocates nothing and the trace ring pins no per-request string.
func shedDetail(reason string) string {
	switch reason {
	case "rate":
		return "shed:rate"
	case "queue":
		return "shed:queue"
	case "body":
		return "shed:body"
	case "drain":
		return "shed:drain"
	case "invalid":
		return "shed:invalid"
	}
	return "shed:" + reason
}

// DecodeFallback counts one /txs body or framed line decoded by
// encoding/json because the recognizer declined it. No-op on nil.
func (o *ServeObserver) DecodeFallback() {
	if o == nil {
		return
	}
	o.DecodeFallbacks.Inc()
}

// BatchFlushed records one epoch batch leaving the queue. No-op on nil.
func (o *ServeObserver) BatchFlushed(txs int) {
	if o == nil {
		return
	}
	o.Batches.Inc()
	o.BatchTxs.Observe(float64(txs))
	o.Trace.Emit(EvIngest, "ingest", float64(txs), "batch")
}

// DrainFlushed records the graceful-drain final flush. No-op on nil.
func (o *ServeObserver) DrainFlushed(txs int) {
	if o == nil {
		return
	}
	o.Drains.Inc()
	o.Trace.Emit(EvIngest, "ingest", float64(txs), "drain")
}

// Delivered records one epoch's settlement accounting: transactions that
// reached a final block, transactions expired by the deferral bound, and
// the outstanding (still-deferred) backlog after the epoch. No-op on nil.
func (o *ServeObserver) Delivered(committed, expired, outstanding int) {
	if o == nil {
		return
	}
	if committed > 0 {
		o.CommittedTxs.Add(int64(committed))
	}
	if expired > 0 {
		o.ExpiredTxs.Add(int64(expired))
	}
	o.OutstandingTxs.Set(float64(outstanding))
}

// SetQueueTxs records the current queue depth in transactions. No-op on
// nil.
func (o *ServeObserver) SetQueueTxs(n int) {
	if o == nil {
		return
	}
	o.QueueTxs.Set(float64(n))
}

// shedCounter caches per-reason labeled counters, mirroring msgCounter.
func (o *ServeObserver) shedCounter(cache *sync.Map, base, help, reason string) *Counter {
	if c, ok := cache.Load(reason); ok {
		return c.(*Counter)
	}
	c := o.reg.Counter(base+"{reason=\""+reason+"\"}", help)
	cache.Store(reason, c)
	return c
}
