// Package stats provides the descriptive statistics used by the MVCom
// experiment harness: summaries, percentiles, empirical CDFs, box-plot
// statistics, and a least-squares linear fit. It exists so that every
// figure in the paper can be regenerated from raw simulation output with
// stdlib-only code.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned by reducers that need at least one sample.
var ErrNoData = errors.New("stats: no data")

// Summary holds the basic descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes a Summary over xs. It returns ErrNoData for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	s := Summary{
		Count: len(xs),
		Min:   xs[0],
		Max:   xs[0],
	}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if s.Count > 1 {
		s.Stddev = math.Sqrt(sq / float64(s.Count-1))
	}
	return s, nil
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns ErrNoData for an empty
// sample and an error for an out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// CDFPoint is one point of an empirical CDF: P(X ≤ Value) = Fraction.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// ECDF returns the empirical cumulative distribution function of xs as a
// sorted sequence of points, one per distinct value.
func ECDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	points := make([]CDFPoint, 0, len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values into the final (highest) fraction.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		points = append(points, CDFPoint{
			Value:    sorted[i],
			Fraction: float64(i+1) / n,
		})
	}
	return points
}

// LinearFit holds the parameters of a least-squares line y = Slope·x +
// Intercept, along with the coefficient of determination R².
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the least-squares linear fit of ys against xs. It
// returns ErrNoData if fewer than two points are given or an error if the
// slices differ in length or x has zero variance.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: x/y length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrNoData
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: zero variance in x")
	}
	fit := LinearFit{Slope: sxy / sxx}
	fit.Intercept = my - fit.Slope*mx
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// BoxStats summarizes a sample the way a box plot does; the paper's Fig. 13
// reports converged-utility distributions in this form.
type BoxStats struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Box computes box-plot statistics for xs.
func Box(xs []float64) (BoxStats, error) {
	if len(xs) == 0 {
		return BoxStats{}, ErrNoData
	}
	q1, err := Percentile(xs, 25)
	if err != nil {
		return BoxStats{}, err
	}
	med, err := Percentile(xs, 50)
	if err != nil {
		return BoxStats{}, err
	}
	q3, err := Percentile(xs, 75)
	if err != nil {
		return BoxStats{}, err
	}
	s, err := Summarize(xs)
	if err != nil {
		return BoxStats{}, err
	}
	return BoxStats{Min: s.Min, Q1: q1, Median: med, Q3: q3, Max: s.Max}, nil
}
