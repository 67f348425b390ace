package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
	"mvcom/internal/ingest"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

// clock is a run's time origin; every timestamp the benchmark takes is
// a monotonic offset from it.
type clock struct{ t0 time.Time }

func (c clock) now() time.Duration { return time.Since(c.t0) }

// plane is one serving plane, wired the way cmd/mvcom-serve's runServer
// wires it, with both front ends listening on loopback.
type plane struct {
	reg      *obs.Registry
	stream   *ingest.NetStream
	clocked  *clockedStream
	pipe     *epoch.Pipeline
	sched    epoch.SolverScheduler
	journal  *decisionlog.Journal
	httpSrv  *http.Server
	httpAddr string
	httpDone chan struct{}
	tcpSrv   *ingest.TCPServer
	probe    *probe
}

// startPlane builds a plane and starts its listeners, returning the
// time that took: the setup_s sample. journalDir must be a fresh
// directory when the config journals decisions. traceCap sizes the obs
// trace ring; traced planes also get the probe's front-end wrappers.
func startPlane(cfg planeConfig, seed int64, clk clock, journalDir string, traced bool, traceCap int) (*plane, time.Duration, error) {
	start := time.Now()
	p := &plane{reg: obs.NewRegistryWithTrace(traceCap)}
	p.stream = ingest.NewStream(ingest.StreamConfig{
		Committees:  cfg.committees,
		Params:      epoch.EpochParams{Alpha: cfg.alpha, Capacity: cfg.capacity, Nmin: 1},
		QueueTxs:    queueTxs,
		Rate:        cfg.rate,
		Burst:       cfg.burst,
		MinBatchTxs: cfg.minBatch,
		MaxWait:     maxWait,
		Obs:         obs.NewServeObserver(p.reg),
	})
	var err error
	if cfg.decisionLog {
		if p.journal, err = decisionlog.Open(decisionlog.Options{Dir: journalDir, Registry: p.reg}); err != nil {
			return nil, 0, err
		}
	}
	p.pipe, err = epoch.NewPipeline(epoch.Config{
		Committees:    cfg.committees,
		CommitteeSize: committeeSize,
		NmaxFraction:  1.0,
		MaxDeferrals:  maxDeferrals,
		Trace:         txgen.Config{Blocks: cfg.committees * 3, MeanTxs: 1200},
		Seed:          committeeSeed,
		Obs:           obs.NewEpochObserver(p.reg),
		DecisionLog:   p.journal,
		Supply:        p.stream,
	})
	if err != nil {
		p.close()
		return nil, 0, err
	}
	p.sched = epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
		Seed:      seed,
		Gamma:     seGamma,
		MaxIters:  seIters,
		WarmStart: true,
		Obs:       obs.NewSEObserver(p.reg),
	})}
	if traced {
		p.probe = newProbe(p.reg, clk)
	}
	p.clocked = &clockedStream{NetStream: p.stream, clk: clk, minBatch: cfg.minBatch, pr: p.probe}

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, 0, err
	}
	var handler http.Handler = ingest.NewHandler(p.stream, ingest.DefaultMaxBody)
	if traced {
		handler = p.probe.wrapHTTP(handler)
	}
	p.httpAddr = httpLn.Addr().String()
	p.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	p.httpDone = make(chan struct{})
	go func() {
		defer close(p.httpDone)
		_ = p.httpSrv.Serve(httpLn)
	}()
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, 0, err
	}
	if traced {
		tcpLn = timedListener{Listener: tcpLn, p: p.probe}
	}
	p.tcpSrv = ingest.ServeTCP(tcpLn, p.stream, ingest.DefaultMaxBody)
	return p, time.Since(start), nil
}

// close stops the front ends and closes the decision journal; it
// returns once the listener goroutines have exited.
func (p *plane) close() error {
	if p.httpSrv != nil {
		_ = p.httpSrv.Close()
		<-p.httpDone
		p.httpSrv = nil
	}
	if p.tcpSrv != nil {
		_ = p.tcpSrv.Close()
		p.tcpSrv = nil
	}
	if p.journal != nil {
		j := p.journal
		p.journal = nil
		return j.Close()
	}
	return nil
}

// epochRecord is one served epoch as the benchmark saw it. Times are on
// the run clock; committed and expired are the cumulative Stats after
// its Deliver.
type epochRecord struct {
	enter, flush, deliverIn, deliverOut time.Duration
	// flushedTxs is what the flush took from the queue: AssignedTxs
	// read as NextContext returns. Only the flush and Deliver change
	// it, and both run on the serve goroutine that reads it.
	flushedTxs int64
	// full marks a NextContext entered with the queue already at
	// min-batch (traced runs only): its call time is the drain alone.
	full               bool
	committed, expired int64
	// decided marks an epoch with live shards; searched one whose
	// arrived volume exceeded the block, so SE had to search.
	decided, searched bool
	live, selected    int
	ageTx, utility    float64
	// phases holds the mvcom_epoch_phase_seconds gauges read at Deliver
	// (traced runs only); solve stays 0 on epochs without a decision.
	phases [len(phaseNames)]float64
}

var phaseNames = [...]string{"consensus", "collect", "solve", "commit"}

// clockedStream is the stream Pipeline.Serve runs against: the plane's
// NetStream with the return of each NextContext (the flush) and each
// Deliver timed. Untraced runs keep only these timestamps and a few
// per-epoch sums, which the end-to-end metrics need.
type clockedStream struct {
	*ingest.NetStream
	clk      clock
	minBatch int
	pr       *probe
	epochs   []epochRecord // serve goroutine only; read after Serve returns

	cur, run *obs.Span // traced: the flushed epoch's span and its run span
}

// NextContext implements epoch.CtxStream.
func (c *clockedStream) NextContext(ctx context.Context, n int) (epoch.EpochParams, bool) {
	enter := c.clk.now()
	var full bool
	var next *obs.Span
	if c.pr != nil {
		full = c.Stats().QueueTxs >= int64(c.minBatch)
		next = c.pr.tc.StartSpan("next", "benchmark", c.pr.pending.Load().Context())
	}
	params, ok := c.NetStream.NextContext(ctx, n)
	flush := c.clk.now()
	if !ok {
		if c.pr != nil {
			next.FinishOutcome("end")
			c.pr.pending.Load().FinishOutcome("end")
		}
		return params, ok
	}
	c.epochs = append(c.epochs, epochRecord{enter: enter, flush: flush, full: full, flushedTxs: c.Stats().AssignedTxs})
	if c.pr != nil {
		next.Finish()
		c.cur = c.pr.pending.Swap(c.pr.tc.StartRoot("bench-epoch", "benchmark"))
		c.run = c.pr.tc.StartSpan("epoch-run", "benchmark", c.cur.Context())
	}
	return params, ok
}

// Deliver implements epoch.EpochStream.
func (c *clockedStream) Deliver(res *epoch.Result) error {
	rec := &c.epochs[len(c.epochs)-1]
	rec.deliverIn = c.clk.now()
	var deliver *obs.Span
	if c.pr != nil {
		c.run.Finish()
		deliver = c.pr.tc.StartSpan("deliver", "benchmark", c.cur.Context())
	}
	rec.decided = len(res.Live) > 0
	if rec.decided {
		in := &res.Instance
		rec.live = len(res.Live)
		rec.searched = in.TotalArrivedSize() > in.Capacity
		rec.utility = res.Solution.Utility
		for li, ri := range res.Live {
			if li < len(res.Solution.Selected) && res.Solution.Selected[li] {
				rec.selected++
				rec.ageTx += in.Age(li) * float64(res.Reports[ri].TxCount)
			}
		}
	}
	if c.pr != nil {
		c.pr.readPhases(&rec.phases, rec.decided)
	}
	err := c.NetStream.Deliver(res)
	rec.deliverOut = c.clk.now()
	st := c.Stats()
	rec.committed, rec.expired = st.CommittedTxs, st.ExpiredTxs
	if c.pr != nil {
		deliver.Finish()
		c.cur.Finish()
	}
	return err
}

// Layers the probe times from outside the plane.
const (
	layerHTTP   = iota // ServeHTTP: decode + admission + ack
	layerTCP           // framed TCP: request line read to ack written
	layerSubmit        // in-process Submit
	nLayers
)

// probe is the traced run's instrumentation: wrappers around the calls
// into each layer, timed and recorded as spans on the plane's obs trace
// ring. Every request's admission span hangs under the bench-epoch span
// that is pending when admission begins, and that epoch's next, run and
// deliver spans share its trace.
type probe struct {
	reg     *obs.Registry
	tc      *obs.TraceContext
	clk     clock
	pending atomic.Pointer[obs.Span]
	timers  [nLayers]layerTimer
}

func newProbe(reg *obs.Registry, clk clock) *probe {
	p := &probe{reg: reg, tc: reg.TraceContext(), clk: clk}
	p.pending.Store(p.tc.StartRoot("bench-epoch", "benchmark"))
	return p
}

// timer returns layer l's timer; nil on a nil probe.
func (p *probe) timer(l int) *layerTimer {
	if p == nil {
		return nil
	}
	return &p.timers[l]
}

// admit opens an admission span named name and returns the func that
// ends it and records its duration on t. On a nil probe it does nothing.
func (p *probe) admit(name string, t *layerTimer) func() {
	if p == nil {
		return func() {}
	}
	start := p.clk.now()
	sp := p.tc.StartSpan(name, "benchmark", p.pending.Load().Context())
	return func() {
		end := p.clk.now()
		t.add(end, end-start)
		sp.Finish()
	}
}

// readPhases copies the epoch's phase gauges into dst. The gauges keep
// their last value, so solve is read only on epochs that decided. Every
// gauge read has been registered by the epoch that just ran, so the
// lookup never creates one.
func (p *probe) readPhases(dst *[len(phaseNames)]float64, decided bool) {
	for i, name := range phaseNames {
		if name == "solve" && !decided {
			continue
		}
		dst[i] = p.reg.Gauge("mvcom_epoch_phase_seconds{phase=\""+name+"\"}", "").Value()
	}
}

func (p *probe) wrapHTTP(h http.Handler) http.Handler {
	t := &p.timers[layerHTTP]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		done := p.admit("http-handler", t)
		h.ServeHTTP(w, r)
		done()
	})
}

// timedListener hands out connections that time each framed request
// from the read that completes its line to the write of its ack. Each
// generator sends its next frame only after reading the previous ack,
// so reads never carry a second frame.
type timedListener struct {
	net.Listener
	p *probe
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, p: l.p}, nil
}

// timedConn is read and written only by the connection's serve
// goroutine.
type timedConn struct {
	net.Conn
	p    *probe
	done func()
}

func (c *timedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.done == nil && bytes.IndexByte(b[:n], '\n') >= 0 {
		c.done = c.p.admit("tcp-frame", &c.p.timers[layerTCP])
	}
	return n, err
}

func (c *timedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.done != nil {
		c.done()
		c.done = nil
	}
	return n, err
}

// layerTimer collects one layer's call durations with their end times.
type layerTimer struct {
	mu      sync.Mutex
	samples []timing
}

type timing struct{ at, d time.Duration }

func (t *layerTimer) add(at, d time.Duration) {
	t.mu.Lock()
	t.samples = append(t.samples, timing{at, d})
	t.mu.Unlock()
}

// micros returns the durations, in µs, of the calls that ended in
// [from, to).
func (t *layerTimer) micros(from, to time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.samples {
		if s.at >= from && s.at < to {
			out = append(out, float64(s.d)/float64(time.Microsecond))
		}
	}
	return out
}
