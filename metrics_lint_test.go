package mvcom_test

import (
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mvcom/internal/decisionlog"
	"mvcom/internal/obs"
)

// metricBaseRE is the naming contract: a metric base name (labels
// stripped) is mvcom_ followed by lowercase snake case.
var metricBaseRE = regexp.MustCompile(`^mvcom_[a-z0-9_]+$`)

// sourceMetricRE finds metric-name string literals in source: a double
// quote immediately followed by an mvcom_ base name. Labeled names
// (`mvcom_x_total{role=...}`) match their base because `{` terminates
// the character class.
var sourceMetricRE = regexp.MustCompile(`"(mvcom_[a-z0-9_]+)`)

// sourceMetricBases scans every non-test .go file in the repository for
// metric-name literals and returns the set of base names.
func sourceMetricBases(t *testing.T) map[string]bool {
	t.Helper()
	bases := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "results" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range sourceMetricRE.FindAllSubmatch(src, -1) {
			bases[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bases) == 0 {
		t.Fatal("source scan found no metric names")
	}
	return bases
}

// documentedBases parses docs/metrics.txt: first whitespace-separated
// token per line, '#' comments and blank lines ignored.
func documentedBases(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("docs", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]bool{}
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		if !metricBaseRE.MatchString(name) {
			t.Errorf("docs/metrics.txt:%d: malformed metric name %q", i+1, name)
			continue
		}
		docs[name] = true
	}
	return docs
}

// TestMetricsNamesDocumented is the metrics-name lint ci.sh runs as a
// fast-stage gate: every metric base name the binaries can register must
// match ^mvcom_[a-z0-9_]+$ and appear in the committed docs/metrics.txt
// index, and every index entry must still be backed by a registration —
// renaming or adding a metric without updating the docs fails the build.
func TestMetricsNamesDocumented(t *testing.T) {
	src := sourceMetricBases(t)
	docs := documentedBases(t)

	for name := range src {
		if !metricBaseRE.MatchString(name) {
			t.Errorf("metric %q violates the mvcom_[a-z0-9_]+ naming contract", name)
		}
		if !docs[name] {
			t.Errorf("metric %q is registered in source but missing from docs/metrics.txt", name)
		}
	}
	for name := range docs {
		if !src[name] {
			t.Errorf("docs/metrics.txt lists %q but no source registration backs it", name)
		}
	}
}

// TestMetricsRuntimeNamesDocumented cross-checks the static scan against
// a live registry: it exercises every observer family plus the decision
// journal and the lazily-registered labeled paths (per-phase gauges,
// per-type dist message counters), then asserts each runtime name's base
// is documented and well-formed. This catches a metric whose name is
// composed at runtime and never appears verbatim in source.
func TestMetricsRuntimeNamesDocumented(t *testing.T) {
	docs := documentedBases(t)

	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	obs.NewSEObserver(reg)
	eo := obs.NewEpochObserver(reg)
	eo.PhaseWall("formation", 0.01) // registers the labeled phase gauge
	do := obs.NewDistObserver(reg, "coordinator")
	do.MsgSent("progress")
	do.MsgRecv("result")
	so := obs.NewServeObserver(reg)
	so.RequestShed("rate", 10) // registers both labeled shed counters
	j, err := decisionlog.Open(decisionlog.Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	names := reg.MetricNames()
	if len(names) == 0 {
		t.Fatal("registry registered no metrics")
	}
	for _, name := range names {
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if !metricBaseRE.MatchString(base) {
			t.Errorf("runtime metric %q has malformed base %q", name, base)
		}
		if !docs[base] {
			t.Errorf("runtime metric %q (base %q) missing from docs/metrics.txt", name, base)
		}
	}
}

// TestObservabilityIndexCurrent lints OBSERVABILITY.md against the
// code: its "Trace event types" list names exactly the trace event
// types (obs.EventType, by exposition name), every metric family
// prefix in docs/metrics.txt (mvcom_<family>_) has a
// `mvcom_<family>_*` table row, and the "HTTP endpoints" section names
// exactly the links the index page at / lists.
func TestObservabilityIndexCurrent(t *testing.T) {
	raw, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	listed := map[string]bool{}
	for _, name := range traceEventList(t, doc) {
		listed[name] = true
	}
	types := 0
	for typ := obs.EvSERound; typ.String() != "unknown"; typ++ {
		if !listed[typ.String()] {
			t.Errorf("OBSERVABILITY.md's trace event list does not name `%s`", typ)
		}
		delete(listed, typ.String())
		types++
	}
	if types == 0 {
		t.Fatal("no trace event types found")
	}
	for name := range listed {
		t.Errorf("OBSERVABILITY.md's trace event list names `%s`, which no obs.EventType is", name)
	}

	families := map[string]bool{}
	for name := range documentedBases(t) {
		family, _, _ := strings.Cut(strings.TrimPrefix(name, "mvcom_"), "_")
		families[family] = true
	}
	for family := range families {
		if row := "| `mvcom_" + family + "_*` |"; !strings.Contains(doc, row) {
			t.Errorf("OBSERVABILITY.md has no %s family row", row)
		}
	}

	_, section, ok := strings.Cut(doc, "\n## HTTP endpoints\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no \"## HTTP endpoints\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	srv := httptest.NewServer(obs.NewMux(obs.NewRegistryWithTrace(16)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	hrefs := map[string]bool{"/": true}
	for _, m := range hrefRE.FindAllStringSubmatch(string(page), -1) {
		hrefs[m[1]] = true
		if !strings.Contains(section, "`"+m[1]+"`") {
			t.Errorf("the index page links %s, but OBSERVABILITY.md's endpoint section does not name it", m[1])
		}
	}
	if len(hrefs) == 1 {
		t.Fatalf("the index page links nothing: %s", page)
	}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range endpointRE.FindAllStringSubmatch(line, -1) {
			if !hrefs[m[1]] {
				t.Errorf("OBSERVABILITY.md's endpoint table names %s, which the index page does not link", m[1])
			}
		}
	}
}

// traceEventList returns the backticked event names of the bullets in
// OBSERVABILITY.md's "Trace event types" section. A bullet names its
// events before its first " (" or " — "; what follows describes them,
// and the span, phase and detail names it quotes are not event types.
func traceEventList(t *testing.T, doc string) []string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n## Trace event types\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no \"## Trace event types\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var bullets []string
	for _, line := range strings.Split(section, "\n") {
		switch {
		case strings.HasPrefix(line, "- "):
			bullets = append(bullets, line[2:])
		case strings.HasPrefix(line, "  ") && len(bullets) > 0:
			bullets[len(bullets)-1] += " " + strings.TrimSpace(line)
		}
	}
	var names []string
	for _, b := range bullets {
		for _, sep := range []string{" (", " — "} {
			b, _, _ = strings.Cut(b, sep)
		}
		for _, m := range backtickRE.FindAllStringSubmatch(b, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// hrefRE finds the links of the obs index page, endpointRE the
// backticked paths of OBSERVABILITY.md's endpoint table, and backtickRE
// any backticked name.
var (
	hrefRE     = regexp.MustCompile(`href="([^"]*)"`)
	endpointRE = regexp.MustCompile("`(/[^`]*)`")
	backtickRE = regexp.MustCompile("`([^`]*)`")
)
