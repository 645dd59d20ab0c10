package workload

import (
	"math"

	"hybridloop/internal/rng"
	"hybridloop/internal/sim"
)

// This file defines simulator loop profiles for the five NAS kernels of
// the paper's Figure 3. A profile mirrors the kernel's parallel-loop
// structure — how many loops run per outer iteration, their iteration
// counts, per-iteration compute, and which bytes each iteration walks —
// as implemented by the real kernels in internal/nas. The profiles drive
// the simulated machine, so Figure 3's scalability curves and Figure 4's
// hierarchy counts can be produced for a 32-core machine that does not
// physically exist here (see DESIGN.md).

// cyclesPerFlop is the rough compute cost charged per floating-point
// operation in the profiles (superscalar cores retire several flops per
// cycle; memory costs come from the hierarchy model, not from this).
const cyclesPerFlop = 0.5

// EPProfile mirrors nas.EP: a single parallel loop over blocks of pair
// generation — pure compute, perfectly balanced, almost no memory.
func EPProfile(blocks int, pairsPerBlock int) sim.Workload {
	perIter := float64(pairsPerBlock) * 40 * cyclesPerFlop // ~40 flops/pair
	ep := sim.Loop{
		N:     blocks,
		Space: 0,
		Cost: func(i int) sim.IterCost {
			// Each block writes its 128-byte result slot (sums + counts).
			lo := int64(i) * 128
			return sim.IterCost{
				Compute: perIter,
				Touches: []sim.Touch{{Region: 0, Lo: lo, Hi: lo + 128}},
			}
		},
	}
	return sim.Workload{
		Name:    "ep",
		Regions: []int64{int64(blocks) * 128}, // per-block result slots
		Loops:   []sim.Loop{ep},
	}
}

// MGProfile mirrors nas.MG: per V-cycle, a sweep down the grid hierarchy
// (restriction) and back up (interpolate + residual + smooth), each level
// contributing plane-parallel loops whose iteration count equals the
// level's grid size — many *small* loops at the coarse levels, which is
// what makes mg scheduling-overhead sensitive (the paper's omp wins here,
// with hybrid second).
func MGProfile(log2n, cycles int) sim.Workload {
	nFine := 1 << log2n
	// Region l holds level l's grids (u, r, tmp interleaved: 3 arrays).
	var regions []int64
	var sizes []int
	for s := 2; s <= nFine; s *= 2 {
		sizes = append(sizes, s)
		regions = append(regions, 3*int64(s)*int64(s)*int64(s)*8)
	}
	planeLoop := func(level, space int, arrays float64) sim.Loop {
		s := sizes[level]
		planeBytes := int64(s) * int64(s) * 8
		touch := int64(arrays * float64(planeBytes))
		flops := float64(s*s) * 27 * cyclesPerFlop
		return sim.Loop{
			N:     s,
			Space: space,
			Cost: func(i int) sim.IterCost {
				lo := int64(i) * 3 * planeBytes
				return sim.IterCost{
					Compute: flops,
					Touches: []sim.Touch{{Region: level, Lo: lo, Hi: lo + touch}},
				}
			},
		}
	}
	var loops []sim.Loop
	top := len(sizes) - 1
	for c := 0; c < cycles; c++ {
		// Down: restriction at every level (reads fine, writes coarse —
		// charge the fine level's planes).
		for l := top; l > 0; l-- {
			loops = append(loops, planeLoop(l, l, 1))
		}
		// Coarsest smooth.
		loops = append(loops, planeLoop(0, 0, 2))
		// Up: interp + residual + smooth per level (three sweeps).
		for l := 1; l <= top; l++ {
			loops = append(loops, planeLoop(l, l, 1))
			loops = append(loops, planeLoop(l, l, 2))
			loops = append(loops, planeLoop(l, l, 2))
		}
	}
	return sim.Workload{
		Name:    "mg",
		Regions: regions,
		Init:    []sim.Loop{planeLoop(top, top, 3)},
		Loops:   loops,
	}
}

// FTProfile mirrors nas.FT: per evolution step, an evolve sweep and three
// FFT passes. Evolve, pass 1 and pass 2 are plane-parallel over the
// contiguous k-planes (one shared index space — the iterative-affinity
// carrier); pass 3 transforms along the third dimension, touching strided
// 1 KiB runs across the whole array (a different space).
func FTProfile(n1, n2, n3, iters int) sim.Workload {
	elem := int64(16) // complex128
	planeBytes := int64(n1) * int64(n2) * elem
	total := planeBytes * int64(n3)
	fftFlops := func(n, lines int) float64 {
		return float64(lines) * 5 * float64(n) * math.Log2(float64(n)) * cyclesPerFlop
	}
	planeSpace, colSpace := 0, 1
	planeLoop := func(flops float64) sim.Loop {
		return sim.Loop{
			N:     n3,
			Space: planeSpace,
			Cost: func(k int) sim.IterCost {
				lo := int64(k) * planeBytes
				return sim.IterCost{
					Compute: flops,
					Touches: []sim.Touch{{Region: 0, Lo: lo, Hi: lo + planeBytes}},
				}
			},
		}
	}
	evolve := planeLoop(float64(n1*n2) * 10 * cyclesPerFlop)
	pass1 := planeLoop(fftFlops(n1, n2))
	pass2 := planeLoop(fftFlops(n2, n1))
	// Pass 3: iteration j touches n3 strided runs of n1*elem bytes.
	rowBytes := int64(n1) * elem
	stride := planeBytes
	pass3 := sim.Loop{
		N:     n2,
		Space: colSpace,
		Cost: func(j int) sim.IterCost {
			touches := make([]sim.Touch, n3)
			base := int64(j) * rowBytes
			for k := 0; k < n3; k++ {
				lo := base + int64(k)*stride
				touches[k] = sim.Touch{Region: 0, Lo: lo, Hi: lo + rowBytes}
			}
			return sim.IterCost{Compute: fftFlops(n3, n1), Touches: touches}
		},
	}
	var loops []sim.Loop
	loops = append(loops, pass1, pass2, pass3) // initial forward FFT
	for it := 0; it < iters; it++ {
		loops = append(loops, evolve, pass1, pass2, pass3)
	}
	return sim.Workload{
		Name:    "ft",
		Regions: []int64{total},
		Init:    []sim.Loop{planeLoop(0)},
		Loops:   loops,
	}
}

// ISProfile mirrors nas.IS: per ranking round, a histogram sweep and a
// rank-assignment sweep over the key array — two memory-heavy loops per
// round over the same index space. Its iterations are 4096-key slices of
// the array (the unit the simulator schedules and charges), not the
// kernel's 8*workers segments; the bucket prefix between the sweeps
// touches only the histograms and is not modelled.
func ISProfile(nKeys, rounds int) sim.Workload {
	const blockKeys = 4096
	nb := (nKeys + blockKeys - 1) / blockKeys
	keysBytes := int64(blockKeys) * 4
	histLoop := sim.Loop{
		N:     nb,
		Space: 0,
		Cost: func(b int) sim.IterCost {
			lo := int64(b) * keysBytes
			return sim.IterCost{
				Compute: float64(blockKeys) * 2 * cyclesPerFlop,
				Touches: []sim.Touch{{Region: 0, Lo: lo, Hi: lo + keysBytes}},
			}
		},
	}
	rankLoop := sim.Loop{
		N:     nb,
		Space: 0,
		Cost: func(b int) sim.IterCost {
			lo := int64(b) * keysBytes
			return sim.IterCost{
				Compute: float64(blockKeys) * 3 * cyclesPerFlop,
				Touches: []sim.Touch{
					{Region: 0, Lo: lo, Hi: lo + keysBytes}, // keys
					{Region: 1, Lo: lo, Hi: lo + keysBytes}, // ranks
				},
			}
		},
	}
	var loops []sim.Loop
	for r := 0; r < rounds; r++ {
		loops = append(loops, histLoop, rankLoop)
	}
	return sim.Workload{
		Name:    "is",
		Regions: []int64{int64(nb) * keysBytes, int64(nb) * keysBytes},
		Init:    []sim.Loop{histLoop},
		Loops:   loops,
	}
}

// CGProfile mirrors nas.CG: per inner CG iteration, a sparse
// matrix-vector product over rows with irregular row lengths (the
// imbalance carrier), two reduction loops and three axpy sweeps over the
// dense vectors.
func CGProfile(n, nnzPerRow, outer, inner int, seed uint64) sim.Workload {
	// Deterministic irregular row lengths around 2*nnzPerRow+1.
	g := rng.NewXoshiro256(seed)
	rowNNZ := make([]int, n)
	rowOff := make([]int64, n+1)
	for i := range rowNNZ {
		rowNNZ[i] = 1 + g.Intn(4*nnzPerRow)
		rowOff[i+1] = rowOff[i] + int64(rowNNZ[i])*12 // 8B val + 4B col
	}
	matBytes := rowOff[n]
	vecBytes := int64(n) * 8
	const rowsPerIter = 64
	nRowBlocks := (n + rowsPerIter - 1) / rowsPerIter
	spmv := sim.Loop{
		N:     nRowBlocks,
		Space: 0,
		Cost: func(b int) sim.IterCost {
			lo := b * rowsPerIter
			hi := lo + rowsPerIter
			if hi > n {
				hi = n
			}
			var flops float64
			for i := lo; i < hi; i++ {
				flops += float64(rowNNZ[i]) * 2 * cyclesPerFlop
			}
			// The x gather hits scattered columns; approximate it as a
			// same-sized slice of x at a shifted, wrapped position.
			xb := (2 * b) % nRowBlocks
			xlo := int64(xb) * rowsPerIter * 8
			xhi := xlo + rowsPerIter*8
			if xhi > vecBytes {
				xhi = vecBytes
			}
			return sim.IterCost{
				Compute: flops,
				Touches: []sim.Touch{
					{Region: 0, Lo: rowOff[lo], Hi: rowOff[hi]},       // matrix slice
					{Region: 1, Lo: int64(lo) * 8, Hi: int64(hi) * 8}, // y
					{Region: 2, Lo: xlo, Hi: xhi},                     // x gather (approx.)
				},
			}
		},
	}
	const vecBlock = 4096 * 2
	nVecBlocks := int((vecBytes + vecBlock - 1) / vecBlock)
	vecLoop := func(regions ...int) sim.Loop {
		return sim.Loop{
			N:     nVecBlocks,
			Space: 1,
			Cost: func(b int) sim.IterCost {
				lo := int64(b) * vecBlock
				hi := lo + vecBlock
				if hi > vecBytes {
					hi = vecBytes
				}
				touches := make([]sim.Touch, len(regions))
				for t, reg := range regions {
					touches[t] = sim.Touch{Region: reg, Lo: lo, Hi: hi}
				}
				return sim.IterCost{
					Compute: float64(hi-lo) / 8 * 2 * cyclesPerFlop,
					Touches: touches,
				}
			},
		}
	}
	var loops []sim.Loop
	for o := 0; o < outer; o++ {
		for i := 0; i < inner; i++ {
			loops = append(loops, spmv, vecLoop(1, 2), vecLoop(1), vecLoop(2))
		}
	}
	return sim.Workload{
		Name:    "cg",
		Regions: []int64{matBytes, vecBytes, vecBytes},
		Init:    []sim.Loop{spmv},
		Loops:   loops,
	}
}

// NASProfiles returns the paper's five kernels at simulator scale
// (footprints chosen so the per-socket working sets exercise the L3/DRAM
// boundary on the paper's machine, as the class B/C inputs did).
func NASProfiles() []sim.Workload {
	return []sim.Workload{
		MGProfile(6, 6),                    // 64^3 fine grid, 6 V-cycles
		EPProfile(4096, 4096),              // 2^24 pairs
		FTProfile(64, 64, 64, 6),           // 64^3, 6 evolution steps
		ISProfile(1<<24, 6),                // 16M keys (128 MB with ranks)
		CGProfile(1<<19, 6, 4, 12, 271828), // 524k rows (~80 MB matrix)
	}
}
