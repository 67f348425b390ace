// Command mvcom-serve runs the networked serving plane: a long-lived
// process that accepts transaction batches over HTTP and a framed-TCP
// codec, batches them into epochs through the bounded
// internal/ingest queue, and schedules each epoch with the MVCom SE
// solver. Admission control — per-source token buckets, body caps, and
// a queue high-watermark — sheds overload with retry hints instead of
// growing the heap.
//
// The same binary doubles as the synthetic client fleet (-swarm), so a
// soak or CI stage can hammer a serve process at a multiple of its
// admission capacity and gate the books:
//
//	mvcom-serve -addr 127.0.0.1:8080 -rate 1000 -duration 30s -gate -expect-shed
//	mvcom-serve -swarm -target http://127.0.0.1:8080 -swarm-rate 2000 -swarm-duration 30s
//
// On SIGTERM or SIGINT the plane drains gracefully: new traffic is shed
// with 503s while the queued backlog settles into final epochs; a
// second signal aborts hard.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
	"mvcom/internal/ingest"
	"mvcom/internal/ingest/swarm"
	"mvcom/internal/obs"
	"mvcom/internal/txgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-serve:", err)
		os.Exit(1)
	}
}

// heapSlack is the post-GC heap growth the health gate tolerates across
// a run. Nothing the plane keeps grows with epoch count, so it only
// absorbs noise.
const heapSlack = 8 << 20

func run(args []string) error {
	fs := flag.NewFlagSet("mvcom-serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:0", "HTTP ingest listen address")
		tcpAddr   = fs.String("tcp-addr", "", "framed-TCP ingest listen address (empty = off)")
		metrAddr  = fs.String("metrics-addr", "", "observability endpoint address (empty = off)")
		addrFile  = fs.String("addr-file", "", "write the bound HTTP ingest address to this file (harness readiness)")
		comms     = fs.Int("committees", 8, "member committees per epoch")
		size      = fs.Int("committee-size", 4, "replicas per committee")
		alpha     = fs.Float64("alpha", 1.5, "throughput weight α")
		capacity  = fs.Int("capacity", 50000, "final-block capacity in TXs per epoch")
		nmin      = fs.Int("nmin", 1, "minimum committees per final block")
		nmaxFrac  = fs.Float64("nmax-frac", 1.0, "admission-window fraction Nmax")
		maxDefer  = fs.Int("max-deferrals", 2, "epochs a refused shard may re-queue before expiring")
		rate      = fs.Float64("rate", 0, "admitted tx/s per source (0 = rate limiting off)")
		burst     = fs.Float64("burst", 0, "token-bucket burst in txs (0 = rate)")
		queueCap  = fs.Int("queue-cap", ingest.DefaultQueueTxs, "ingest queue high-watermark in txs")
		maxBody   = fs.Int64("max-body", ingest.DefaultMaxBody, "request body / frame cap in bytes")
		minBatch  = fs.Int("min-batch", 500, "txs that trigger an epoch flush")
		maxWait   = fs.Duration("max-wait", 100*time.Millisecond, "max wait for traffic before flushing an epoch")
		epochs    = fs.Int("epochs", 0, "serve at most this many epochs (0 = unbounded)")
		duration  = fs.Duration("duration", 0, "drain gracefully after this long (0 = run until signaled)")
		seed      = fs.Int64("seed", 1, "random seed")
		seIters   = fs.Int("se-iters", 800, "SE rounds per epoch")
		gamma     = fs.Int("gamma", 4, "SE parallel exploration threads")
		warm      = fs.Bool("warm", true, "thread each epoch's decision into the next as an SE warm start")
		decLogDir = fs.String("decision-log", "", "write the decision journal to this directory")
		gate      = fs.Bool("gate", false, "fail unless the post-run health gates pass")
		expShed   = fs.Bool("expect-shed", false, "with -gate, fail unless admission shed traffic")
		quiet     = fs.Bool("q", false, "suppress the final stats dump")

		swarmMode = fs.Bool("swarm", false, "run the synthetic client fleet instead of a server")
		target    = fs.String("target", "", "swarm: base URL of the serve process (e.g. http://127.0.0.1:8080)")
		swClients = fs.Int("swarm-clients", 4, "swarm: concurrent clients")
		swRate    = fs.Float64("swarm-rate", 1000, "swarm: offered tx/s per client")
		swBatch   = fs.Int("swarm-batch", 100, "swarm: txs per request")
		swDur     = fs.Duration("swarm-duration", 10*time.Second, "swarm: offering window")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *swarmMode {
		return runSwarm(*target, *swClients, *swRate, *swBatch, *swDur, *seed, *quiet)
	}
	return runServer(&serverConfig{
		addr: *addr, tcpAddr: *tcpAddr, metrAddr: *metrAddr, addrFile: *addrFile,
		committees: *comms, size: *size, alpha: *alpha, capacity: *capacity,
		nmin: *nmin, nmaxFrac: *nmaxFrac, maxDefer: *maxDefer,
		rate: *rate, burst: *burst,
		queueCap: *queueCap, maxBody: *maxBody, minBatch: *minBatch, maxWait: *maxWait,
		epochs: *epochs, duration: *duration, seed: *seed,
		seIters: *seIters, gamma: *gamma, warm: *warm, decLogDir: *decLogDir,
		gate: *gate, expectShed: *expShed, quiet: *quiet,
	})
}

type serverConfig struct {
	addr, tcpAddr, metrAddr, addrFile string
	committees, size                  int
	alpha                             float64
	capacity, nmin                    int
	nmaxFrac                          float64
	maxDefer                          int
	rate, burst                       float64
	queueCap                          int
	maxBody                           int64
	minBatch                          int
	maxWait                           time.Duration
	epochs                            int
	duration                          time.Duration
	seed                              int64
	seIters, gamma                    int
	warm                              bool
	decLogDir                         string
	gate, expectShed                  bool
	quiet                             bool
}

func runServer(cfg *serverConfig) error {
	if cfg.capacity < 1 {
		return fmt.Errorf("capacity %d: need >= 1", cfg.capacity)
	}
	// A flush of a full queue splits it evenly over the committees; when
	// one share alone overflows the block, no selection is feasible and
	// that epoch ends Serve with an error.
	queueCap := cfg.queueCap
	if queueCap <= 0 {
		queueCap = ingest.DefaultQueueTxs
	}
	if cfg.committees >= 1 {
		if per := (queueCap + cfg.committees - 1) / cfg.committees; per > cfg.capacity {
			return fmt.Errorf("queue-cap %d over %d committees gives %d-tx shards, above capacity %d",
				queueCap, cfg.committees, per, cfg.capacity)
		}
	}
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	if cfg.metrAddr != "" {
		msrv, err := obs.Serve(cfg.metrAddr, reg)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("mvcom-serve: metrics on http://%s/metrics\n", msrv.Addr())
	}

	stream := ingest.NewStream(ingest.StreamConfig{
		Params:      epoch.EpochParams{Alpha: cfg.alpha, Capacity: cfg.capacity, Nmin: cfg.nmin},
		QueueTxs:    cfg.queueCap,
		Rate:        cfg.rate,
		Burst:       cfg.burst,
		MinBatchTxs: cfg.minBatch,
		MaxWait:     cfg.maxWait,
		MaxEpochs:   cfg.epochs,
		Obs:         obs.NewServeObserver(reg),
	})

	var dj *decisionlog.Journal
	var err error
	if cfg.decLogDir != "" {
		dj, err = decisionlog.Open(decisionlog.Options{Dir: cfg.decLogDir, Registry: reg})
		if err != nil {
			return err
		}
		defer dj.Close()
	}
	p, err := epoch.NewPipeline(epoch.Config{
		Committees:    cfg.committees,
		CommitteeSize: cfg.size,
		NmaxFraction:  cfg.nmaxFrac,
		MaxDeferrals:  cfg.maxDefer,
		Trace:         txgen.Config{Blocks: cfg.committees * 3, MeanTxs: 1200},
		Seed:          cfg.seed,
		Obs:           obs.NewEpochObserver(reg),
		DecisionLog:   dj,
		Supply:        stream,
	})
	if err != nil {
		return err
	}
	sched := epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{
		Seed:      cfg.seed,
		Gamma:     cfg.gamma,
		MaxIters:  cfg.seIters,
		WarmStart: cfg.warm,
		Obs:       obs.NewSEObserver(reg),
	})}

	// Front ends.
	httpLn, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: ingest.NewHandler(stream, cfg.maxBody), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = httpSrv.Serve(httpLn) }()
	defer httpSrv.Close()
	fmt.Printf("mvcom-serve: http ingest on %s\n", httpLn.Addr())
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(httpLn.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	var tcpSrv *ingest.TCPServer
	if cfg.tcpAddr != "" {
		tcpLn, err := net.Listen("tcp", cfg.tcpAddr)
		if err != nil {
			return err
		}
		tcpSrv = ingest.ServeTCP(tcpLn, stream, int(cfg.maxBody))
		defer tcpSrv.Close()
		fmt.Printf("mvcom-serve: tcp ingest on %s\n", tcpSrv.Addr())
	}

	// First signal drains gracefully, a second aborts the serve loop.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case <-sigCh:
			fmt.Println("mvcom-serve: draining (signal); again to abort")
			stream.Drain()
		case <-ctx.Done():
			return
		}
		select {
		case <-sigCh:
			fmt.Println("mvcom-serve: aborting")
			cancel()
		case <-ctx.Done():
		}
	}()
	if cfg.duration > 0 {
		drainTimer := time.AfterFunc(cfg.duration, func() {
			fmt.Println("mvcom-serve: draining (duration elapsed)")
			stream.Drain()
		})
		defer drainTimer.Stop()
	}

	// Post-GC heap samples while serving; the gate demands a flat trend.
	var sampling atomic.Bool
	sampling.Store(true)
	heapCh := make(chan []uint64, 1)
	go func() {
		var heaps []uint64
		var ms runtime.MemStats
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for sampling.Load() {
			select {
			case <-tick.C:
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heaps = append(heaps, ms.HeapAlloc)
			case <-ctx.Done():
				sampling.Store(false)
			}
		}
		heapCh <- heaps
	}()

	runtime.GC()
	baselineGoroutines := runtime.NumGoroutine()
	start := time.Now()
	serveErr := p.Serve(ctx, sched, stream)
	elapsed := time.Since(start)
	sampling.Store(false)
	heaps := <-heapCh
	if serveErr != nil && serveErr != context.Canceled {
		return serveErr
	}

	// Wind the front ends down before counting goroutines.
	_ = httpSrv.Close()
	if tcpSrv != nil {
		_ = tcpSrv.Close()
	}

	st := stream.Stats()
	if err := p.Chain().Verify(); err != nil {
		return fmt.Errorf("root chain verification: %w", err)
	}
	fmt.Printf("mvcom-serve: served %d epochs in %s (chain height %d)\n",
		st.Epochs, elapsed.Round(time.Millisecond), p.Chain().Height())
	if !cfg.quiet {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	}

	if cfg.gate {
		if err := gateServe(st, heaps, baselineGoroutines, cfg, serveErr == nil); err != nil {
			return err
		}
		fmt.Println("serve gates passed: books settled, heap bounded, goroutines at baseline")
	}
	return nil
}

// gateServe enforces the serving-plane health gates after the loop
// ends: every request accounted accepted-or-shed, every admitted
// transaction settled (on a graceful drain), accepted traffic actually
// committed, shedding observed when the load demanded it, the post-GC
// heap trend flat, and the process back at its goroutine baseline.
func gateServe(st ingest.Stats, heaps []uint64, baseline int, cfg *serverConfig, drained bool) error {
	if st.Accepted+st.Shed() != st.Requests {
		return fmt.Errorf("gate: request accounting leak: %+v", st)
	}
	if st.AccountingErrors != 0 {
		return fmt.Errorf("gate: %d settlement accounting errors: %+v", st.AccountingErrors, st)
	}
	if drained {
		if gap := st.AccountingGap(); gap != 0 {
			return fmt.Errorf("gate: settlement gap %d after drain: %+v", gap, st)
		}
		if u := st.Unsettled(); u != 0 {
			return fmt.Errorf("gate: %d unsettled txs after drain: %+v", u, st)
		}
	}
	if st.AcceptedTxs > 0 && st.CommittedTxs == 0 {
		return fmt.Errorf("gate: accepted traffic but committed nothing: %+v", st)
	}
	if cfg.expectShed && st.Shed() == 0 {
		return fmt.Errorf("gate: expected admission shedding, saw none: %+v", st)
	}
	if err := obs.CheckHealth(heaps, heapSlack, baseline); err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	return nil
}

// runSwarm is the client-fleet mode: hammer a serve process and print
// the fleet ledger.
func runSwarm(target string, clients int, rate float64, batch int, dur time.Duration, seed int64, quiet bool) error {
	if target == "" {
		return fmt.Errorf("-swarm needs -target")
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	fleet, err := swarm.Run(ctx, swarm.Config{
		Clients:  clients,
		Trace:    txgen.Config{Blocks: 64, MeanTxs: 800, MinTxs: 200, MaxTxs: 3000},
		Seed:     seed,
		Rate:     rate,
		Batch:    batch,
		Duration: dur,
	}, swarm.Dial(target))
	if err != nil {
		return err
	}
	if !quiet {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(fleet)
	}
	fmt.Printf("mvcom-serve: swarm done: %d requests, %d accepted, %d shed, %d errors\n",
		fleet.Requests, fleet.Accepted, fleet.Shed, fleet.Errors)
	if fleet.Requests == 0 {
		return fmt.Errorf("swarm sent nothing")
	}
	if fleet.Errors > 0 {
		return fmt.Errorf("swarm hit %d transport errors", fleet.Errors)
	}
	return nil
}
