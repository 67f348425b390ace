package benchjournal

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseGoBench parses `go test -bench` text output into summarized
// benchmarks. Repeated result lines for the same benchmark (from -count)
// become that benchmark's samples. Non-result lines (goos/pkg/PASS/ok
// headers, b.Log output) are skipped.
func ParseGoBench(r io.Reader) ([]Benchmark, error) {
	samples := map[string][]Sample{}
	order := []string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		name, s, ok, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Strings(order)
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		out = append(out, Summarize(name, samples[name]))
	}
	return out, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName/sub-8  100  12345 ns/op  67 B/op  8 allocs/op  1.5 utility
//
// reporting ok=false for lines that are not benchmark results.
func parseBenchLine(line string) (name string, s Sample, ok bool, err error) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Sample{}, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", Sample{}, false, nil
	}
	name = stripProcsSuffix(fields[0])
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Sample{}, false, nil
	}
	s.N = n
	// JSON would rewrite invalid UTF-8, renaming the benchmark on Load.
	if !utf8.ValidString(line) {
		return "", Sample{}, false, fmt.Errorf("benchjournal: invalid UTF-8 in %q", line)
	}
	for i := 2; i+1 < len(fields); i += 2 {
		// JSON has no NaN or Inf, and past ±MaxFloat64/4 a Stat's IQR (a
		// difference of two samples) could overflow to Inf: refuse both
		// here, naming the line, rather than at Save.
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(v) || math.Abs(v) > math.MaxFloat64/4 {
			return "", Sample{}, false, fmt.Errorf("benchjournal: bad value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.NsPerOp = v
		case "B/op":
			s.BytesPerOp = v
		case "allocs/op":
			s.AllocsPerOp = &v
		case "MB/s":
			// Throughput is redundant with ns/op; skip it.
		default:
			if s.Metrics == nil {
				s.Metrics = map[string]float64{}
			}
			s.Metrics[unit] = v
		}
	}
	if s.NsPerOp == 0 {
		return "", Sample{}, false, nil
	}
	return name, s, true, nil
}

// stripProcsSuffix drops the trailing -GOMAXPROCS from a benchmark name
// ("BenchmarkX/sub-8" → "BenchmarkX/sub") so journals from machines with
// different core counts compare by logical benchmark.
func stripProcsSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
