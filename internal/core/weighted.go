package core

import "fmt"

// WeightedSplit divides [r.Begin, r.End) into n consecutive sub-ranges of
// approximately equal total weight, where weight(i) gives iteration i's
// relative cost. This supports the annotation-driven extension discussed
// in the paper's related work (Tzannes-style programmer hints): when
// per-iteration costs are known, the *static* phase of the hybrid scheme
// can already balance the load, and the claiming heuristic plus work
// stealing only mop up the estimation error.
//
// Boundaries are chosen by walking the prefix sum: partition k ends at the
// first iteration where the accumulated weight reaches (k+1)/n of the
// total. Weights must be non-negative; a zero total degenerates to the
// equal-count Split.
func WeightedSplit(r Range, n int, weight func(i int) float64) []Range {
	if n <= 0 {
		panic("core: WeightedSplit with n <= 0")
	}
	out := make([]Range, n)
	WeightedSplitInto(r, out, weight)
	return out
}

// WeightedSplitInto is WeightedSplit into caller-owned storage, len(out)
// sub-ranges.
func WeightedSplitInto(r Range, out []Range, weight func(i int) float64) {
	if weight == nil {
		r.splitInto(out)
		return
	}
	total := 0.0
	for i := r.Begin; i < r.End; i++ {
		w := weight(i)
		if w < 0 {
			panic(fmt.Sprintf("core: negative weight %v at iteration %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		r.splitInto(out)
		return
	}
	n := len(out)
	begin := r.Begin
	acc := 0.0
	i := r.Begin
	for k := 0; k < n-1; k++ {
		target := total * float64(k+1) / float64(n)
		for i < r.End && acc < target {
			acc += weight(i)
			i++
		}
		out[k] = Range{begin, i}
		begin = i
	}
	// The last partition absorbs everything that remains.
	out[n-1] = Range{begin, r.End}
}

// NewPartitionSetParts builds a PartitionSet over explicit partition
// ranges. The ranges must be contiguous (each begins where the previous
// ended) and their count must be a power of two — they are typically
// produced by WeightedSplit with R = NextPow2(P).
func NewPartitionSetParts(parts []Range) *PartitionSet {
	r := len(parts)
	if r < 1 || r&(r-1) != 0 {
		panic(fmt.Sprintf("core: %d partitions is not a power of two", r))
	}
	for i := 1; i < r; i++ {
		if parts[i].Begin != parts[i-1].End {
			panic(fmt.Sprintf("core: partitions %d and %d not contiguous", i-1, i))
		}
	}
	ps := NewPartitionSetR(parts[0].Begin, parts[r-1].End, r)
	copy(ps.parts, parts)
	return ps
}
