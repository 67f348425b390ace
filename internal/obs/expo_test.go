package obs

import (
	"strings"
	"testing"
)

// goldenRegistry builds a deterministic registry for exposition tests:
// labeled and unlabeled counters sharing a base name, a gauge, and a
// histogram exercising the exact-bound and overflow buckets.
func goldenRegistry() *Registry {
	r := NewRegistryWithTrace(DefaultTraceCapacity)
	r.Counter("mvcom_test_total", "test events").Add(3)
	r.Counter(`mvcom_msgs_total{dir="rx"}`, "messages").Add(2)
	r.Counter(`mvcom_msgs_total{dir="tx"}`, "messages").Inc()
	r.Gauge("mvcom_gauge", "level").Set(2.5)
	h := r.Histogram("mvcom_lat_seconds", "latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1) // exact bound -> le="1"
	h.Observe(3) // above last bound -> +Inf
	r.Tracer().Emit(EvSegmentMerge, "se", 42, "")
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP mvcom_msgs_total messages
# TYPE mvcom_msgs_total counter
mvcom_msgs_total{dir="rx"} 2
mvcom_msgs_total{dir="tx"} 1
# HELP mvcom_test_total test events
# TYPE mvcom_test_total counter
mvcom_test_total 3
# HELP mvcom_gauge level
# TYPE mvcom_gauge gauge
mvcom_gauge 2.5
# HELP mvcom_lat_seconds latency
# TYPE mvcom_lat_seconds histogram
mvcom_lat_seconds_bucket{le="1"} 2
mvcom_lat_seconds_bucket{le="2"} 2
mvcom_lat_seconds_bucket{le="+Inf"} 3
mvcom_lat_seconds_sum 4.5
mvcom_lat_seconds_count 3
# HELP mvcom_trace_dropped_total trace events evicted from the bounded ring
# TYPE mvcom_trace_dropped_total counter
mvcom_trace_dropped_total 0
# HELP mvcom_trace_events_total structured trace events emitted
# TYPE mvcom_trace_events_total counter
mvcom_trace_events_total 1
`
	if got := sb.String(); got != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteNilRegistry(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WritePrometheus: err=%v out=%q", err, sb.String())
	}
}

func TestPromFloat(t *testing.T) {
	cases := map[float64]string{2.5: "2.5", 1: "1"}
	for v, want := range cases {
		if got := promFloat(v); got != want {
			t.Fatalf("promFloat(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestLabeledHistogramBucketNames(t *testing.T) {
	r := NewRegistryWithTrace(DefaultTraceCapacity)
	h := r.Histogram(`mvcom_lab_seconds{role="worker"}`, "labeled", []float64{1})
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`mvcom_lab_seconds_bucket{role="worker",le="1"} 1`,
		`mvcom_lab_seconds_bucket{role="worker",le="+Inf"} 1`,
		`mvcom_lab_seconds_sum{role="worker"} 0.5`,
		`mvcom_lab_seconds_count{role="worker"} 1`,
		"# HELP mvcom_lab_seconds labeled",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
