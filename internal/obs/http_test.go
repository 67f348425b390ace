package obs

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mvcom_http_test_total", "endpoint test").Add(7)
	reg.Tracer().Emit(EvEpochPhase, "epoch", 1, "formation")

	server, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + server.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ctype := get("/metrics")
	if !strings.Contains(text, "mvcom_http_test_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", text)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type %q", ctype)
	}

	js, ctype := get("/metrics.json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/metrics.json content type %q", ctype)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(js), &doc); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if doc.Counters["mvcom_http_test_total"] != 7 {
		t.Fatalf("/metrics.json counters = %v", doc.Counters)
	}

	trace, _ := get("/trace")
	var tdoc struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(trace), &tdoc); err != nil {
		t.Fatalf("/trace does not parse: %v", err)
	}
	if len(tdoc.Events) != 1 || tdoc.Events[0].Detail != "formation" {
		t.Fatalf("/trace events = %+v", tdoc.Events)
	}

	// /debug/timeline reconstructs spans from the same ring.
	sp := reg.TraceContext().StartRoot("epoch", "coord")
	reg.TraceContext().StartSpan("solve", "w1", sp.Context()).Finish()
	sp.Finish()
	timeline, ctype := get("/debug/timeline")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/debug/timeline content type %q", ctype)
	}
	var tldoc Timeline
	if err := json.Unmarshal([]byte(timeline), &tldoc); err != nil {
		t.Fatalf("/debug/timeline does not parse: %v", err)
	}
	if tldoc.Spans != 2 || len(tldoc.Roots) != 1 || len(tldoc.Orphans) != 0 {
		t.Fatalf("/debug/timeline = %+v", tldoc)
	}
	tree, ctype := get("/debug/timeline?format=tree")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(tree, "└── epoch (coord)") {
		t.Fatalf("/debug/timeline?format=tree (%s):\n%s", ctype, tree)
	}

	vars, _ := get("/debug/vars")
	if !strings.Contains(vars, "memstats") {
		t.Fatal("/debug/vars missing expvar memstats")
	}

	pp, _ := get("/debug/pprof/")
	if !strings.Contains(pp, "goroutine") {
		t.Fatal("/debug/pprof/ index missing goroutine profile")
	}
}

func TestServeIndexHealthAndDebugProviders(t *testing.T) {
	reg := NewRegistry()
	server, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + server.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, index := get("/")
	if code != http.StatusOK {
		t.Fatalf("/ status %d", code)
	}
	for _, link := range []string{"/healthz", "/metrics", "/trace", "/debug/timeline", "/debug/convergence", "/debug/pprof/"} {
		if !strings.Contains(index, link) {
			t.Fatalf("index page missing link %s:\n%s", link, index)
		}
	}
	if code, _ := get("/no-such-page"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}

	reg.Tracer().Emit(EvEpochPhase, "epoch", 1, "formation")
	code, health := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var hdoc struct {
		Status string `json:"status"`
		Trace  struct {
			Capacity int     `json:"capacity"`
			Emitted  uint64  `json:"emitted"`
			Dropped  uint64  `json:"dropped"`
			Fill     float64 `json:"fill"`
		} `json:"trace"`
	}
	if err := json.Unmarshal([]byte(health), &hdoc); err != nil || hdoc.Status != "ok" {
		t.Fatalf("/healthz body %q (err %v)", health, err)
	}
	if hdoc.Trace.Capacity != DefaultTraceCapacity {
		t.Fatalf("/healthz trace capacity = %d, want %d", hdoc.Trace.Capacity, DefaultTraceCapacity)
	}
	if hdoc.Trace.Emitted == 0 || hdoc.Trace.Fill <= 0 {
		t.Fatalf("/healthz trace stats empty: %q", health)
	}

	// Before any run registers diagnostics the page 404s; registration
	// after Serve must take effect without a restart.
	if code, _ := get("/debug/convergence"); code != http.StatusNotFound {
		t.Fatalf("/debug/convergence before registration: status %d, want 404", code)
	}
	reg.RegisterDebug("convergence", func() any {
		return map[string]any{"rounds": 42}
	})
	code, conv := get("/debug/convergence")
	if code != http.StatusOK {
		t.Fatalf("/debug/convergence status %d", code)
	}
	var cdoc struct {
		Rounds int `json:"rounds"`
	}
	if err := json.Unmarshal([]byte(conv), &cdoc); err != nil || cdoc.Rounds != 42 {
		t.Fatalf("/debug/convergence body %q (err %v)", conv, err)
	}

	// Extra providers appear both at /debug/<name> and on the index.
	reg.RegisterDebug("extra", func() any { return []int{1, 2, 3} })
	if code, body := get("/debug/extra"); code != http.StatusOK || !strings.Contains(body, "1") {
		t.Fatalf("/debug/extra status %d body %q", code, body)
	}
	if _, index := get("/"); !strings.Contains(index, "/debug/extra") {
		t.Fatal("index page missing dynamically registered /debug/extra link")
	}
}

func TestRegistryWithTraceCapacity(t *testing.T) {
	reg := NewRegistryWithTrace(16)
	for i := 0; i < 40; i++ {
		reg.Tracer().Emit(EvSERound, "se", float64(i), "")
	}
	events, dropped := reg.Tracer().Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want ring capacity 16", len(events))
	}
	if dropped != 24 {
		t.Fatalf("dropped = %d, want 24", dropped)
	}
	// Nil registry: every accessor stays inert.
	var nilReg *Registry
	nilReg.RegisterDebug("x", func() any { return nil })
	if nilReg.DebugProvider("x") != nil || nilReg.DebugNames() != nil {
		t.Fatal("nil registry must have no debug providers")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("127.0.0.1:-1", NewRegistry()); err == nil {
		t.Fatal("expected listen error for invalid address")
	}
}

// TestFlagsStart pins the CLI bootstrap: without -metrics-addr the
// registry is nil unless the caller needs one, -trace-buf sizes its
// ring, and with -metrics-addr the registry is served and announced on
// stderr in the exact line mvcom-cluster waits for.
func TestFlagsStart(t *testing.T) {
	start := func(need bool, args ...string) (*Registry, func()) {
		t.Helper()
		fs := flag.NewFlagSet("obs-test", flag.ContinueOnError)
		f := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		reg, stop, err := f.Start("obs-test", need)
		if err != nil {
			t.Fatal(err)
		}
		return reg, stop
	}
	reg, stop := start(false)
	stop()
	if reg != nil {
		t.Fatal("registry built with no endpoint and no need for one")
	}
	reg, stop = start(true, "-trace-buf", "32")
	stop()
	if reg == nil || reg.Tracer().Capacity() != 32 {
		t.Fatalf("needed registry missing or mis-sized: %+v", reg)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	reg, stop = start(false, "-metrics-addr", "127.0.0.1:0")
	os.Stderr = stderr
	w.Close()
	defer stop()
	banner, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`^obs-test: metrics on http://([0-9.:]+)/metrics\n$`).FindSubmatch(banner)
	if reg == nil || m == nil {
		t.Fatalf("served registry %v, banner %q", reg, banner)
	}
	resp, err := http.Get("http://" + string(m[1]) + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
}
