package benchjournal

import (
	"fmt"
	"sort"
)

// Options tunes the differ.
type Options struct {
	// TimeThreshold is the minimum relative slowdown of the median
	// ns/op that counts as a regression. Default 0.10.
	TimeThreshold float64
}

func (o Options) withDefaults() Options {
	if o.TimeThreshold <= 0 {
		o.TimeThreshold = 0.10
	}
	return o
}

// allocThreshold is the relative growth of the median allocs/op that
// counts as a regression. Allocations are deterministic per operation,
// so this gate is hard even across environments.
const allocThreshold = 0.01

// noiseFactor widens the time threshold by this factor times the larger
// relative IQR of the two sides: noisy samples demand a larger slowdown
// before the gate fires.
const noiseFactor = 1.0

// Severity classifies one finding.
type Severity string

// The finding severities, ordered: only SevRegression fails the gate.
const (
	SevInfo       Severity = "info"
	SevWarning    Severity = "warning"
	SevRegression Severity = "regression"
)

// Finding is one observation of the differ.
type Finding struct {
	Benchmark string   `json:"benchmark"`
	Metric    string   `json:"metric"`
	Old       float64  `json:"old"`
	New       float64  `json:"new"`
	Ratio     float64  `json:"ratio"`
	Threshold float64  `json:"threshold"`
	Severity  Severity `json:"severity"`
	Note      string   `json:"note,omitempty"`
}

// String renders a finding for the CLI.
func (f Finding) String() string {
	s := fmt.Sprintf("%-10s %s %s: %.4g -> %.4g (x%.3f, gate x%.3f)",
		f.Severity, f.Benchmark, f.Metric, f.Old, f.New, f.Ratio, 1+f.Threshold)
	if f.Note != "" {
		s += " — " + f.Note
	}
	return s
}

// OverheadUnit is the b.ReportMetric unit of a paired overhead ratio:
// instrumented over plain wall time, the two variants interleaved within
// each iteration so machine-load drift cancels out of the ratio.
const OverheadUnit = "on/off"

// OverheadCeiling is the largest best-sample OverheadUnit ratio Diff
// accepts: instrumentation may cost at most 3%. It is keyed by the unit
// here, not stored in the baseline, so refreshing the baseline from a
// fresh -ingest cannot drop it.
const OverheadCeiling = 1.03

// Diff compares two journals and reports findings plus whether any
// finding is a gate-failing regression. Wall-time comparisons use the
// noise-widened threshold and degrade to warnings when the environment
// fingerprints differ. Three gates are hard in every environment:
//   - allocs/op growth over the baseline median, from zero too;
//   - an OverheadUnit best sample (Stat.Min) above OverheadCeiling in the
//     new journal, whatever the baseline holds;
//   - a baseline benchmark with an allocs stat or an OverheadUnit metric
//     that the new journal lacks, or that no longer reports it.
//
// Every other presence change only warns or informs.
func Diff(oldJ, newJ *Journal, opt Options) ([]Finding, bool) {
	opt = opt.withDefaults()
	sameEnv := oldJ.Env == newJ.Env

	var findings []Finding
	regressed := false
	add := func(f Finding) {
		findings = append(findings, f)
		regressed = regressed || f.Severity == SevRegression
	}
	seen := map[string]bool{}

	for i := range oldJ.Benchmarks {
		ob := &oldJ.Benchmarks[i]
		seen[ob.Name] = true
		_, oldOverhead := ob.Metrics[OverheadUnit]
		nb := newJ.Find(ob.Name)
		if nb == nil {
			f := Finding{
				Benchmark: ob.Name, Metric: "presence", Severity: SevWarning,
				Note: "benchmark missing from the new journal",
			}
			if ob.AllocsPerOp != nil || oldOverhead {
				f.Severity, f.Note = SevRegression, "hard-gated benchmark missing from the new journal"
			}
			add(f)
			continue
		}
		lost := func(metric string) {
			add(Finding{
				Benchmark: ob.Name, Metric: metric, Severity: SevRegression,
				Note: "hard-gated metric no longer reported",
			})
		}

		// Wall time: median vs median, threshold widened by noise.
		if ob.NsPerOp.Median > 0 && nb.NsPerOp.Median > 0 {
			thresh := opt.TimeThreshold + noiseFactor*maxRelIQR(ob.NsPerOp, nb.NsPerOp)
			ratio := nb.NsPerOp.Median / ob.NsPerOp.Median
			f := Finding{
				Benchmark: ob.Name, Metric: "ns/op",
				Old: ob.NsPerOp.Median, New: nb.NsPerOp.Median,
				Ratio: ratio, Threshold: thresh,
			}
			switch {
			case ratio > 1+thresh && sameEnv:
				f.Severity, f.Note = SevRegression, "median slowdown beyond the noise-widened gate"
				add(f)
			case ratio > 1+thresh:
				f.Severity, f.Note = SevWarning, "slowdown, but the environment fingerprints differ — not gated"
				add(f)
			case ratio < 1/(1+thresh):
				f.Severity, f.Note = SevInfo, "improvement"
				add(f)
			}
		}

		// Allocations: deterministic, hard gate regardless of environment.
		if ob.AllocsPerOp != nil {
			switch {
			case nb.AllocsPerOp == nil:
				lost("allocs/op")
			case nb.AllocsPerOp.Median > ob.AllocsPerOp.Median*(1+allocThreshold):
				add(Finding{
					Benchmark: ob.Name, Metric: "allocs/op",
					Old: ob.AllocsPerOp.Median, New: nb.AllocsPerOp.Median,
					Ratio:     nb.AllocsPerOp.Median / ob.AllocsPerOp.Median,
					Threshold: allocThreshold,
					Severity:  SevRegression,
					Note:      "allocation growth (hard gate: allocs are deterministic)",
				})
			}
		}
		if _, ok := nb.Metrics[OverheadUnit]; oldOverhead && !ok {
			lost(OverheadUnit)
		}
	}

	for i := range newJ.Benchmarks {
		nb := &newJ.Benchmarks[i]
		if !seen[nb.Name] {
			add(Finding{
				Benchmark: nb.Name, Metric: "presence", Severity: SevInfo,
				Note: "new benchmark (no baseline)",
			})
		}
		// The best sample is the one least disturbed by machine load, so
		// a real overhead shows in it while one noisy window cannot fail.
		if s, ok := nb.Metrics[OverheadUnit]; ok && s.Min > OverheadCeiling {
			add(Finding{
				Benchmark: nb.Name, Metric: OverheadUnit,
				Old: 1, New: s.Min, Ratio: s.Min, Threshold: OverheadCeiling - 1,
				Severity: SevRegression,
				Note:     "best sample above the overhead ceiling",
			})
		}
	}

	sort.SliceStable(findings, func(a, b int) bool {
		return sevRank(findings[a].Severity) > sevRank(findings[b].Severity)
	})
	return findings, regressed
}

func sevRank(s Severity) int {
	switch s {
	case SevRegression:
		return 2
	case SevWarning:
		return 1
	default:
		return 0
	}
}

// maxRelIQR returns the larger IQR/median of the two stats — the noise
// scale the time gate widens by.
func maxRelIQR(a, b Stat) float64 {
	ra, rb := 0.0, 0.0
	if a.Median > 0 {
		ra = a.IQR / a.Median
	}
	if b.Median > 0 {
		rb = b.IQR / b.Median
	}
	if ra > rb {
		return ra
	}
	return rb
}
