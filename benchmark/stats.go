package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// tailLadder is the percentiles a timing's tail is reported at,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// rank is the 1-based nearest rank of the q-th percentile of n samples.
// The 1e-9 slack keeps q·n products that land a hair above an integer
// from rounding up one rank.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-th percentile of sorted (0 for
// no samples).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tail returns the highest ladder percentile at or below limit that
// leaves at least ten samples beyond its rank, with its value. With too
// few samples for any, it falls back to the median.
func tail(sorted []float64, limit float64) (q, v float64) {
	n := len(sorted)
	for _, q := range tailLadder {
		if q <= limit && n-rank(n, q) >= 10 {
			return q, percentile(sorted, q)
		}
	}
	return 0.5, percentile(sorted, 0.5)
}

// pname renders a percentile as "p99", "p99.9".
func pname(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// medianOfParts applies f to the values of each part, xs[i] belonging
// to part part[i] in [0, parts), and returns the median of the results
// over the parts that have values.
func medianOfParts(xs []float64, part []int, f func([]float64) float64) float64 {
	groups := make([][]float64, parts)
	for i, x := range xs {
		groups[part[i]] = append(groups[part[i]], x)
	}
	var vals []float64
	for _, g := range groups {
		if len(g) > 0 {
			vals = append(vals, f(g))
		}
	}
	_, med, _ := quartiles(vals)
	return med
}

// quartiles returns the first quartile, median and third quartile of
// xs as Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	quart := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return quart(1), med, quart(3)
}

// assignEpochs returns the index of the epoch that flushed each accepted
// request in recs, and -1 for the others. A flush drains the whole
// queue and each epoch record counts the transactions it took, so epoch
// k took the next eps[k].flushedTxs/batchTxs requests in the order the
// plane admitted them. The plane admits a request between its send and
// its ack, and one generator sends its next request only after the
// previous ack, so send order is admission order within a generator; it
// can swap only two requests of different generators in flight at once.
func assignEpochs(recs []reqRecord, eps []epochRecord) ([]int, error) {
	order := make([]int, 0, len(recs))
	out := make([]int, len(recs))
	for i, q := range recs {
		out[i] = -1
		if q.outcome == accepted {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].sent < recs[order[b]].sent })
	next := 0
	for k, e := range eps {
		n := int(e.flushedTxs / batchTxs)
		if e.flushedTxs%batchTxs != 0 || next+n > len(order) {
			return nil, fmt.Errorf("epoch %d flushed %d transactions, not the next whole requests of the %d accepted", k, e.flushedTxs, len(order))
		}
		for _, i := range order[next : next+n] {
			out[i] = k
		}
		next += n
	}
	if next != len(order) {
		return nil, fmt.Errorf("the epochs flushed %d of the %d accepted requests", next, len(order))
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
