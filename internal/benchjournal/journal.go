// Package benchjournal is the continuous benchmark journal of the repo:
// a versioned JSON schema for performance baselines (BENCH_MVCOM.json at
// the repo root), a parser for `go test -bench` output, and a
// noise-aware differ that turns two journals into a CI regression gate.
//
// A journal records the environment fingerprint the samples were taken
// under, the raw per-run samples (one per -count repetition), and
// median/IQR summaries. The differ compares medians but widens its
// threshold by the observed IQR — repeated samples are what make the
// gate robust to scheduler noise — and degrades wall-time gates to
// warnings when the fingerprints differ (a laptop cannot invalidate a CI
// baseline). Three gates are hard in every environment: allocation
// counts, which are deterministic per operation, may not grow (from a
// zero baseline too); a paired overhead ratio reported in OverheadUnit
// must keep its best sample within OverheadCeiling; and a baseline
// benchmark carrying either gate may not drop out of the new journal.
package benchjournal

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// SchemaVersion is the journal schema this package reads and writes.
// Readers reject other versions instead of misinterpreting fields.
const SchemaVersion = 1

// Env is the environment fingerprint a journal's samples were taken
// under.
type Env struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnv fingerprints the running process.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Stat summarizes repeated samples of one metric. Median and IQR are the
// robust location/spread pair the differ reasons with.
type Stat struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Count  int     `json:"count"`
}

// NewStat summarizes a sample slice (empty input yields a zero Stat).
func NewStat(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Stat{
		Median: quantile(sorted, 0.5),
		IQR:    quantile(sorted, 0.75) - quantile(sorted, 0.25),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Count:  len(sorted),
	}
}

// quantile interpolates linearly on a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Sample is one benchmark run (one -count repetition).
type Sample struct {
	// N is the b.N iteration count of the run.
	N int64 `json:"n"`
	// NsPerOp is the wall time per operation.
	NsPerOp float64 `json:"nsPerOp"`
	// BytesPerOp and AllocsPerOp are present when the benchmark reported
	// allocations (-benchmem or b.ReportAllocs). AllocsPerOp is non-nil
	// exactly when allocs/op was printed, so a zero count still journals.
	BytesPerOp  float64  `json:"bytesPerOp,omitempty"`
	AllocsPerOp *float64 `json:"allocsPerOp,omitempty"`
	// Metrics carries custom b.ReportMetric units (e.g. "utility").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Benchmark groups one benchmark's samples with their summaries.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped, so
	// journals from machines with different core counts line up.
	Name    string   `json:"name"`
	Samples []Sample `json:"samples"`

	NsPerOp     Stat            `json:"nsPerOp"`
	BytesPerOp  *Stat           `json:"bytesPerOp,omitempty"`
	AllocsPerOp *Stat           `json:"allocsPerOp,omitempty"`
	Metrics     map[string]Stat `json:"metrics,omitempty"`
}

// Summarize builds a Benchmark from raw samples.
func Summarize(name string, samples []Sample) Benchmark {
	b := Benchmark{Name: name, Samples: samples}
	ns := make([]float64, 0, len(samples))
	var bytesXs, allocXs []float64
	metricXs := map[string][]float64{}
	for _, s := range samples {
		ns = append(ns, s.NsPerOp)
		if s.AllocsPerOp != nil {
			bytesXs = append(bytesXs, s.BytesPerOp)
			allocXs = append(allocXs, *s.AllocsPerOp)
		}
		for unit, v := range s.Metrics {
			metricXs[unit] = append(metricXs[unit], v)
		}
	}
	b.NsPerOp = NewStat(ns)
	if len(bytesXs) > 0 {
		bs, as := NewStat(bytesXs), NewStat(allocXs)
		b.BytesPerOp, b.AllocsPerOp = &bs, &as
	}
	if len(metricXs) > 0 {
		b.Metrics = make(map[string]Stat, len(metricXs))
		for unit, xs := range metricXs {
			b.Metrics[unit] = NewStat(xs)
		}
	}
	return b
}

// Convergence is the headline convergence-diagnostics record attached to
// a journal: the seobs snapshot of one deterministic probe solve, so a
// journal captures not just "how fast" but "does it still converge".
type Convergence struct {
	K                      int     `json:"k"`
	Gamma                  int     `json:"gamma"`
	Rounds                 int64   `json:"rounds"`
	BestUtility            float64 `json:"bestUtility"`
	DTV                    float64 `json:"dtv"`
	TimeToEpsRounds        int     `json:"timeToEpsRounds"`
	SwapAcceptRate         float64 `json:"swapAcceptRate"`
	IntegratedAutocorrTime float64 `json:"integratedAutocorrTime"`

	// Adaptive-schedule companion run: the same instance and seed solved
	// with SEConfig.Adaptive on. The probe refuses to journal a build
	// where the schedule reaches the ε-band slower than the fixed chain.
	AdaptiveTimeToEpsRounds int     `json:"adaptiveTimeToEpsRounds,omitempty"`
	AdaptiveDTV             float64 `json:"adaptiveDtv,omitempty"`
	AdaptiveStage           int     `json:"adaptiveStage,omitempty"`
}

// Journal is one benchmark journal document.
type Journal struct {
	SchemaVersion int    `json:"schemaVersion"`
	GeneratedAt   string `json:"generatedAt,omitempty"`
	Note          string `json:"note,omitempty"`
	Env           Env    `json:"env"`

	Benchmarks []Benchmark `json:"benchmarks"`

	Convergence *Convergence `json:"convergence,omitempty"`
}

// Find returns the named benchmark, or nil.
func (j *Journal) Find(name string) *Benchmark {
	for i := range j.Benchmarks {
		if j.Benchmarks[i].Name == name {
			return &j.Benchmarks[i]
		}
	}
	return nil
}

// Load reads and validates a journal file.
func Load(path string) (*Journal, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var j Journal
	if err := json.Unmarshal(raw, &j); err != nil {
		return nil, fmt.Errorf("benchjournal: parse %s: %w", path, err)
	}
	if j.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchjournal: %s has schema version %d, this tool reads %d",
			path, j.SchemaVersion, SchemaVersion)
	}
	return &j, nil
}

// Save writes the journal with stable formatting (sorted benchmarks,
// two-space indent, trailing newline) so committed baselines diff
// cleanly.
func (j *Journal) Save(path string) error {
	j.SchemaVersion = SchemaVersion
	sort.Slice(j.Benchmarks, func(a, b int) bool {
		return j.Benchmarks[a].Name < j.Benchmarks[b].Name
	})
	raw, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
