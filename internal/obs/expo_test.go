package obs

import (
	"encoding/json"
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

func TestWriteJSONGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "counters": {
    "mvcom_msgs_total{dir=\"rx\"}": 2,
    "mvcom_msgs_total{dir=\"tx\"}": 1,
    "mvcom_test_total": 3
  },
  "gauges": {
    "mvcom_gauge": 2.5
  },
  "histograms": {
    "mvcom_lat_seconds": {
      "count": 3,
      "sum": 4.5,
      "p50": 0.75,
      "p95": 2,
      "p99": 2,
      "buckets": [
        {
          "le": 1,
          "count": 2
        },
        {
          "le": 2,
          "count": 0
        },
        {
          "le": "+Inf",
          "count": 1
        }
      ]
    }
  },
  "trace": {
    "emitted": 1,
    "dropped": 0
  }
}
`
	if got := sb.String(); got != want {
		t.Fatalf("json exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteJSONRoundTrips guards against hand-rolled encoding bugs: the
// document must parse back and agree with the live instruments.
func TestWriteJSONRoundTrips(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				LE    json.RawMessage `json:"le"`
				Count int64           `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("exposition does not parse as JSON: %v", err)
	}
	if doc.Counters["mvcom_test_total"] != 3 {
		t.Fatalf("counters round-trip: %v", doc.Counters)
	}
	h := doc.Histograms["mvcom_lat_seconds"]
	if h.Count != 3 || len(h.Buckets) != 3 {
		t.Fatalf("histogram round-trip: %+v", h)
	}
	if string(h.Buckets[2].LE) != `"+Inf"` {
		t.Fatalf("overflow bucket le = %s, want \"+Inf\"", h.Buckets[2].LE)
	}
}

func TestWriteNilRegistry(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WritePrometheus: err=%v out=%q", err, sb.String())
	}
	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil || sb.String() != "{}\n" {
		t.Fatalf("nil WriteJSON: err=%v out=%q", err, sb.String())
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2}
	counts := []int64{2, 0, 1} // observations 0.5, 1, 3
	cases := []struct {
		q, want float64
	}{
		{0.50, 0.75}, // rank 1.5 of 2 in [0,1] -> 0.75
		{0.95, 2},    // rank lands in +Inf -> highest finite bound
		{0.99, 2},
	}
	for _, c := range cases {
		if got := histQuantile(c.q, bounds, counts); got != c.want {
			t.Fatalf("histQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := histQuantile(0.5, bounds, []int64{0, 0, 0}); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// A rank inside the second bucket interpolates from the first bound.
	if got := histQuantile(0.5, bounds, []int64{0, 4, 0}); got != 1.5 {
		t.Fatalf("mid-bucket quantile = %v, want 1.5", got)
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
