package obs

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"
)

// NewMux builds the observability HTTP handler for a registry:
//
//	/                   index page linking every endpoint below
//	/healthz            liveness probe + tracer fill/drop stats
//	/metrics            Prometheus text exposition
//	/metrics.json       the same instruments as one JSON document
//	/trace              recent structured trace events (streamed JSON, oldest first)
//	/debug/timeline     causal span timeline reconstructed from the tracer ring
//	/debug/convergence  SE convergence diagnostics (registered provider)
//	/debug/decisions    recent epoch decision-journal entries (registered provider)
//	/debug/vars         expvar (Go runtime memstats, cmdline)
//	/debug/pprof/       CPU, heap, goroutine, ... profiles
//
// Debug pages under /debug/<name> resolve their provider on every fetch
// (Registry.RegisterDebug), so a page registered after Serve started —
// the convergence diagnostics attach when an SE run begins — is served
// without restarting the endpoint.
func NewMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<html><head><title>mvcom observability</title></head><body>\n")
		fmt.Fprint(w, "<h1>mvcom observability</h1>\n<ul>\n")
		links := []string{"/healthz", "/metrics", "/metrics.json", "/trace", "/debug/timeline", "/debug/convergence", "/debug/decisions", "/debug/vars", "/debug/pprof/"}
		seen := map[string]bool{}
		for _, l := range links {
			seen[l] = true
		}
		for _, name := range reg.DebugNames() {
			if l := "/debug/" + name; !seen[l] {
				links = append(links, l)
			}
		}
		for _, l := range links {
			fmt.Fprintf(w, "<li><a href=%q>%s</a></li>\n", l, l)
		}
		fmt.Fprint(w, "</ul>\n</body></html>\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Surface the tracer ring's fill/drop state so silent trace loss
		// is visible before an mvcom-trace -merge comes up short.
		tr := reg.Tracer()
		emitted, dropped, capacity := tr.Emitted(), tr.Dropped(), tr.Capacity()
		fill := 0.0
		if capacity > 0 {
			retained := emitted
			if retained > uint64(capacity) {
				retained = uint64(capacity)
			}
			fill = float64(retained) / float64(capacity)
		}
		fmt.Fprintf(w, `{"status":"ok","trace":{"capacity":%d,"emitted":%d,"dropped":%d,"fill":%.4f}}`+"\n",
			capacity, emitted, dropped, fill)
	})
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/debug/")
		fn := reg.DebugProvider(name)
		if fn == nil {
			http.Error(w, "no debug provider registered under "+strconv.Quote(name), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(fn())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Streamed in bounded chunks — a large -trace-buf no longer
		// materializes the whole window on export.
		_ = reg.Tracer().StreamJSON(w)
	})
	// Explicit registration wins over the /debug/ provider dispatch.
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, r *http.Request) {
		events, _ := reg.Tracer().Snapshot()
		tl := BuildTimeline(events)
		if r.URL.Query().Get("format") == "tree" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = tl.WriteTree(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tl)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	hs *http.Server
	ln net.Listener
}

// Serve starts the observability endpoint on addr (e.g. ":9100" or
// "127.0.0.1:0") and returns the running server. The caller should
// defer Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: NewMux(reg), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }()
	return &Server{hs: hs, ln: ln}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.hs.Close() }

// Flags are the observability flags the CLIs share: -metrics-addr and
// -trace-buf.
type Flags struct {
	addr     string
	traceBuf int
}

// RegisterFlags declares -metrics-addr and -trace-buf on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.addr, "metrics-addr", "", "serve live metrics on this address (e.g. 127.0.0.1:9100); empty disables")
	fs.IntVar(&f.traceBuf, "trace-buf", 4096, "trace ring-buffer capacity (events retained for /trace)")
	return f
}

// Start returns the run's registry and a func that shuts its endpoint
// down. With -metrics-addr set, the registry is served there and
// "<prog>: metrics on http://ADDR/metrics" goes to stderr, the line
// mvcom-cluster waits for. Otherwise the registry is nil, which turns
// every observer off, unless need asks for one without an endpoint
// (for a trace dump or timeline written at exit).
func (f *Flags) Start(prog string, need bool) (*Registry, func(), error) {
	if f.addr == "" && !need {
		return nil, func() {}, nil
	}
	reg := NewRegistryWithTrace(f.traceBuf)
	if f.addr == "" {
		return reg, func() {}, nil
	}
	s, err := Serve(f.addr, reg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", prog, s.Addr())
	return reg, func() { _ = s.Close() }, nil
}
