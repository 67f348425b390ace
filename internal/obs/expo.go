package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// baseName strips an embedded Prometheus label set from a metric name:
// `dist_messages_total{dir="rx"}` -> `dist_messages_total`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labeled splits a metric name into base and label-set text (without
// braces); label text is empty for unlabeled names.
func labeled(name string) (string, string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// promFloat renders a float the way Prometheus expects (+Inf, integers
// without exponent noise).
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format, followed by the tracer's self-metrics. Output
// is sorted by name so it is stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	tracer := r.tracer
	r.mu.Unlock()

	seenHelp := make(map[string]bool)
	header := func(name, help, typ string) string {
		base := baseName(name)
		if seenHelp[base] {
			return ""
		}
		seenHelp[base] = true
		return fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", base, help, base, typ)
	}

	for _, name := range sortedKeys(counters) {
		c := counters[name]
		if _, err := fmt.Fprintf(w, "%s%s %d\n", header(name, c.help, "counter"), name, c.Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		if _, err := fmt.Fprintf(w, "%s%s %s\n", header(name, g.help, "gauge"), name, promFloat(g.Value())); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		if _, err := io.WriteString(w, header(name, h.help, "histogram")); err != nil {
			return err
		}
		base, labels := labeled(name)
		bucketName := func(le string) string {
			if labels == "" {
				return fmt.Sprintf("%s_bucket{le=%q}", base, le)
			}
			return fmt.Sprintf("%s_bucket{%s,le=%q}", base, labels, le)
		}
		bounds, counts := h.Buckets()
		cum := int64(0)
		for i, b := range bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s %d\n", bucketName(promFloat(b)), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s %d\n", bucketName("+Inf"), cum); err != nil {
			return err
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			base, suffix, promFloat(h.Sum()), base, suffix, h.Count()); err != nil {
			return err
		}
	}
	if tracer != nil {
		if _, err := fmt.Fprintf(w,
			"# HELP mvcom_trace_dropped_total trace events evicted from the bounded ring\n"+
				"# TYPE mvcom_trace_dropped_total counter\n"+
				"mvcom_trace_dropped_total %d\n"+
				"# HELP mvcom_trace_events_total structured trace events emitted\n"+
				"# TYPE mvcom_trace_events_total counter\n"+
				"mvcom_trace_events_total %d\n",
			tracer.Dropped(), tracer.Emitted()); err != nil {
			return err
		}
	}
	return nil
}
