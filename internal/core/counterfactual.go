package core

// Marginal is one selected shard's contribution to the solution: the
// utility the epoch would lose if the shard were removed. Because the
// objective is additive, the marginal of a selected shard is exactly its
// Value — unless removing it would violate Nmin, in which case the whole
// solution collapses to infeasible and the shard is Binding.
type Marginal struct {
	// Shard is the instance index of the selected shard.
	Shard int `json:"shard"`
	// Utility is the utility drop if the shard were removed (its Value).
	Utility float64 `json:"utility"`
	// Binding marks shards whose removal would push the selection below
	// Nmin: removing them does not cost Value, it costs feasibility.
	Binding bool `json:"binding,omitempty"`
}

// MarginalsInto computes the per-committee marginal utility of every
// selected shard, in ascending shard order, appending into dst's
// truncated capacity — the decision journal's pooled entries call it
// every epoch, so the steady state must not allocate.
func MarginalsInto(dst []Marginal, in *Instance, sol Solution) []Marginal {
	dst = dst[:0]
	for i, sel := range sol.Selected {
		if !sel {
			continue
		}
		dst = append(dst, Marginal{
			Shard:   i,
			Utility: in.Value(i),
			Binding: sol.Count-1 < in.Nmin,
		})
	}
	return dst
}

// Rejection explains one arrived-but-refused shard: what admitting it
// would have required and what the swap would have been worth.
type Rejection struct {
	// Shard is the instance index of the refused shard.
	Shard int `json:"shard"`
	// Value is the utility the shard would have contributed.
	Value float64 `json:"value"`
	// Evicted lists the selected shards (lowest Value first) that would
	// have to leave the block to free capacity for this shard. Empty when
	// spare capacity alone could admit it.
	Evicted []int `json:"evicted,omitempty"`
	// EvictedValue is the summed Value of Evicted — the utility the
	// admission would have cost elsewhere.
	EvictedValue float64 `json:"evictedValue,omitempty"`
	// NetGain is Value − EvictedValue: positive means the greedy swap
	// looks profitable in isolation (the solver still refused it because
	// the evictions cascade or the chain found a better global shape).
	NetGain float64 `json:"netGain"`
	// Feasible reports whether any eviction set admits the shard at all
	// (false when the shard alone exceeds capacity or evictions would
	// break Nmin).
	Feasible bool `json:"feasible,omitempty"`
}

// counterfactualScratchLen bounds the stack-allocated index scratch the
// per-epoch path uses; instances larger than this fall back to the heap.
const counterfactualScratchLen = 96

// insertByValueDesc inserts i into s (kept sorted by descending
// in.Value, ties by ascending index), capping the list at k entries.
// Insertion sort: the lists are a few dozen entries, and sort.Slice's
// closure and interface costs were visible on the journal's epoch path.
func insertByValueDesc(s []int, in *Instance, i, k int) []int {
	pos := len(s)
	vi := in.Value(i)
	for pos > 0 {
		vp := in.Value(s[pos-1])
		if vp > vi || (vp == vi && s[pos-1] < i) {
			break
		}
		pos--
	}
	if pos >= k {
		return s
	}
	if len(s) < k {
		s = append(s, 0)
	}
	copy(s[pos+1:], s[pos:])
	s[pos] = i
	return s
}

// insertByValueAsc is insertByValueDesc's unbounded ascending twin, the
// greedy eviction order (cheapest utility given up first).
func insertByValueAsc(s []int, in *Instance, i int) []int {
	pos := len(s)
	vi := in.Value(i)
	for pos > 0 {
		vp := in.Value(s[pos-1])
		if vp < vi || (vp == vi && s[pos-1] < i) {
			break
		}
		pos--
	}
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = i
	return s
}

// RejectedCounterfactualsInto explains the top-k arrived-but-refused
// shards (highest Value first): for each, the cheapest greedy eviction
// set that would free enough capacity, and the net utility of the swap.
// It is the "what would admission have cost elsewhere" record the
// decision journal stores per epoch, so it appends into dst's truncated
// capacity, reusing each recycled element's Evicted backing array, and
// the steady state does not allocate.
func RejectedCounterfactualsInto(dst []Rejection, in *Instance, sol Solution, k int) []Rejection {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	var rejectedArr, selectedArr [counterfactualScratchLen]int
	rejected := rejectedArr[:0]
	for i, l := range in.Latencies {
		if l <= in.DDL && (i >= len(sol.Selected) || !sol.Selected[i]) {
			rejected = insertByValueDesc(rejected, in, i, k)
		}
	}
	selected := selectedArr[:0]
	for i, sel := range sol.Selected {
		if sel {
			selected = insertByValueAsc(selected, in, i)
		}
	}

	for _, j := range rejected {
		// Reuse the recycled element's Evicted capacity when dst came from
		// a pooled journal entry.
		var evicted []int
		if len(dst) < cap(dst) {
			evicted = dst[:len(dst)+1][len(dst)].Evicted[:0]
		}
		r := Rejection{Shard: j, Value: in.Value(j)}
		need := sol.Load + in.Sizes[j] - in.Capacity
		if in.Sizes[j] > in.Capacity {
			// The shard alone overflows the block: no eviction set helps.
			r.NetGain = r.Value
			dst = append(dst, r)
			continue
		}
		remaining := sol.Count
		feasible := true
		for _, e := range selected {
			if need <= 0 {
				break
			}
			// Post-eviction count is (remaining-1)+1: the admitted shard
			// replaces the evicted one in the Nmin tally.
			if remaining < in.Nmin {
				feasible = false
				break
			}
			evicted = append(evicted, e)
			r.EvictedValue += in.Value(e)
			need -= in.Sizes[e]
			remaining--
		}
		if len(evicted) > 0 {
			r.Evicted = evicted
		}
		if need > 0 {
			feasible = false
		}
		r.Feasible = feasible
		r.NetGain = r.Value - r.EvictedValue
		dst = append(dst, r)
	}
	return dst
}
