package seobs

import (
	"math"
	"math/bits"
)

// The d_TV estimator's methodology (DESIGN.md §5e):
//
// The kernel's solution threads never change cardinality — a swap keeps
// |f_n| = n — so the chain decomposes into per-cardinality components:
// thread f_n samples only n-subsets, and its stationary law is the
// Gibbs target conditioned on cardinality n,
//
//	p*(f | |f| = n) ∝ exp(β_eff·U_f),  load(f) ≤ C.
//
// A raw visit histogram therefore cannot converge to the *global*
// Gibbs target (its cardinality marginal is fixed by the thread layout,
// one sample per thread per round, not by p*). The estimator instead
// measures each component against its conditional target and recombines
// with the target's own cardinality marginal π*(n):
//
//	d̂_TV = Σ_n π*(n) · d_TV(visits_n / mass_n, p*|_n)
//
// which equals d_TV(p̂, p*) for the reweighted visit distribution
// p̂(f) = π*(|f|)·visits_{|f|}(f)/mass_{|f|} — i.e. the empirical
// visit distribution with its cardinality marginal calibrated to the
// target's. visits_n is the *dwell-weighted* occupancy: each round's
// sample carries weight 1/Σw, the expected holding time before the next
// race fires (see Probe.RecordRound). Raw per-round counts measure the
// embedded jump chain, whose occupancy is ∝ p*(f)·Σrates(f) and so
// under-counts the mode, where the total rate is smallest; the dwell
// weights recover the continuous-time occupancy the target actually
// describes. Classes
// without samples (inactive cardinality) count their full weight as
// distance, so d̂_TV starts at 1 and can only fall as evidence
// accumulates.
//
// The enumeration spans every capacity-feasible state whose cardinality
// owns a solution thread (RunInfo.Cards) — exactly the space the chain
// inhabits (the full and empty selections have no thread; Nmin only
// gates *reporting* a best, not exploration, so it does not trim the
// chain's space). With the default layout Cards covers all of 1..K−1;
// under a MaxThreads lattice narrower than K−1 it is a subset, and the
// target renormalizes over the covered classes — the chain then targets
// the Gibbs law conditioned on |f| ∈ Cards, which is what the restricted
// thread lattice actually samples. The weights use β_eff, the
// value-normalized β the transition rates actually apply.

// rebuildTargetLocked enumerates the Gibbs target for the bound run, or
// disables the d_TV estimator when the instance is too large.
func (d *Diag) rebuildTargetLocked() {
	d.target, d.cardMarg, d.visits, d.cardVisits, d.cardCounts = nil, nil, nil, nil, nil
	d.tvStates, d.modeMask, d.modeUtil = 0, 0, math.Inf(-1)
	k := d.info.K
	if k < 2 || k > d.cfg.MaxTVShards || len(d.info.Sizes) != k || len(d.info.Values) != k {
		return
	}
	// Only cardinalities that own a thread have a sampler; states outside
	// the covered classes are excluded from the target (conditioning on
	// |f| ∈ Cards) rather than counted as unreachable distance.
	if len(d.info.Cards) == 0 {
		return
	}
	covered := make([]bool, k)
	for _, n := range d.info.Cards {
		if n >= 1 && n < k {
			covered[n] = true
		}
	}

	size := 1 << uint(k)
	logw := make([]float64, size)
	maxW := math.Inf(-1)
	states := 0
	for mask := 1; mask < size; mask++ {
		n := bits.OnesCount32(uint32(mask))
		if n >= k || !covered[n] {
			logw[mask] = math.Inf(-1)
			continue
		}
		load, util := 0, 0.0
		for pos := 0; pos < k; pos++ {
			if mask>>uint(pos)&1 == 1 {
				load += d.info.Sizes[pos]
				util += d.info.Values[pos]
			}
		}
		if load > d.info.Capacity {
			logw[mask] = math.Inf(-1)
			continue
		}
		logw[mask] = d.info.BetaEff * util
		if logw[mask] > maxW {
			maxW = logw[mask]
		}
		states++
		if util > d.modeUtil {
			d.modeUtil = util
			d.modeMask = uint64(mask)
		}
	}
	logw[0] = math.Inf(-1)
	if states == 0 {
		return
	}

	target := make([]float64, size)
	cardMarg := make([]float64, k)
	var z float64
	for mask, w := range logw {
		if !math.IsInf(w, -1) {
			e := math.Exp(w - maxW)
			target[mask] = e
			z += e
		}
	}
	for mask, e := range target {
		if e > 0 {
			p := e / z
			target[mask] = p
			cardMarg[bits.OnesCount32(uint32(mask))] += p
		}
	}
	d.target = target
	d.cardMarg = cardMarg
	d.tvStates = states
	d.visits = make([]float64, size)
	d.cardVisits = make([]float64, k)
	d.cardCounts = make([]int64, k)
}

// dtvLocked aggregates the per-cardinality TV distances with the
// target's cardinality marginal.
func (d *Diag) dtvLocked() *DTVSnapshot {
	s := &DTVSnapshot{
		Enabled:     true,
		States:      d.tvStates,
		ModeMask:    d.modeMask,
		ModeUtility: d.modeUtil,
	}
	k := d.info.K
	size := len(d.target)
	var total int64
	for _, c := range d.cardCounts {
		total += c
	}
	s.Samples = total

	perCard := make([]CardTV, 0, k-1)
	est := 0.0
	for n := 1; n < k; n++ {
		w := d.cardMarg[n]
		if w == 0 {
			continue
		}
		samples := d.cardCounts[n]
		mass := d.cardVisits[n]
		tv := 1.0
		if samples > 0 && mass > 0 {
			var sum float64
			for mask := 1; mask < size; mask++ {
				if bits.OnesCount32(uint32(mask)) != n {
					continue
				}
				emp := d.visits[mask] / mass
				sum += math.Abs(emp - d.target[mask]/w)
			}
			tv = sum / 2
		}
		est += w * tv
		perCard = append(perCard, CardTV{N: n, Weight: w, Samples: samples, TV: tv})
	}
	s.Estimate = est
	s.PerCardinality = perCard
	return s
}
