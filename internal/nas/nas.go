// Package nas implements the five kernels of the NAS Parallel Benchmarks
// used in the paper's evaluation (Section V) — EP, IS, CG, MG and FT — on
// top of the hybridloop public API, together with sequential reference
// versions used for verification.
//
// The implementations follow the NPB 3.3.1 kernel definitions (the same
// lineage as the C++ port the paper used): EP reproduces the NPB
// linear-congruential stream bit-for-bit including the O(log n) skip-ahead
// that makes it parallel; IS performs the bucketed key ranking; CG runs
// the inverse-power-method outer loop around a conjugate-gradient solve of
// a randomly generated sparse symmetric system; MG runs V-cycles of the
// NPB four-coefficient 27-point stencils on a periodic 3-D grid; FT
// performs the 3-D FFT with per-dimension pencil parallelism and the NPB
// evolve/checksum loop. Where NPB fixes workload classes (S/W/A/...) by
// constants, these kernels take explicit sizes so tests can run
// laptop-scale instances; class checksums are replaced by mathematical
// invariants (documented per kernel) plus parallel-vs-sequential
// equivalence, which the deterministic reductions below make exact.
package nas

import (
	"math"

	"hybridloop"
	"hybridloop/internal/rng"
)

// Pool is the scheduler interface the kernels need; satisfied by
// *hybridloop.Pool.
type Pool = *hybridloop.Pool

// blockPartials is the deterministic parallel-reduction helper: the index
// space [0, n) is cut into fixed blocks (independent of scheduling); the
// parallel loop computes one partial per block, and the caller folds the
// partials in block order. The result is bitwise identical to a
// sequential left fold over the same blocks no matter how the loop was
// scheduled — which is what lets the tests demand exact equality between
// sequential and parallel kernel runs.
const reduceBlock = 1024

func numBlocks(n int) int { return (n + reduceBlock - 1) / reduceBlock }

func blockRange(b, n int) (lo, hi int) {
	lo = b * reduceBlock
	hi = lo + reduceBlock
	if hi > n {
		hi = n
	}
	return lo, hi
}

// parallelSum computes sum_{i in [0,n)} f(i) with a deterministic
// block-wise reduction on the pool. partials is the caller's scratch, at
// least numBlocks(n) long, so a solver making hundreds of reductions
// allocates it once.
func parallelSum(p Pool, partials []float64, n int, f func(i int) float64, opts ...hybridloop.ForOption) float64 {
	nb := numBlocks(n)
	partials = partials[:nb]
	p.For(0, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := blockRange(b, n)
			var s float64
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			partials[b] = s
		}
	}, opts...)
	var total float64
	for _, s := range partials {
		total += s
	}
	return total
}

// genBlock is the number of draws from an input's generator that one block
// of a parallel fill takes: 2^15, so the benchmark's 2^21 IS keys are 64
// blocks and its 64x64x32 FT array, two draws an element, 8.
const genBlock = 1 << 15

// genJump advances a generator by one block of draws.
var genJump = rng.NewJumpPoly(genBlock)

// parallelFill fills items [0, n) on the pool with the values that one
// generator seeded with seed gives them in index order, perItem draws an
// item (perItem divides genBlock): fill(g, lo, hi) makes items [lo, hi)
// from g, drawing perItem values for each. The items are cut into blocks
// of genBlock draws, and block b starts from the seed's stream jumped
// ahead b·genBlock draws, the starts chained with one jump polynomial
// before the loop — the analogue of NPB's find_my_seed, which skips its
// LCG to each thread's first draw.
func parallelFill(p Pool, opts []hybridloop.ForOption, seed uint64, n, perItem int, fill func(g *rng.Xoshiro256, lo, hi int)) {
	per := genBlock / perItem
	gens := make([]rng.Xoshiro256, (n+per-1)/per)
	g := *rng.NewXoshiro256(seed)
	for b := range gens {
		if b > 0 {
			g.Advance(genJump)
		}
		gens[b] = g
	}
	p.For(0, len(gens), func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			fill(&gens[b], b*per, min((b+1)*per, n))
		}
	}, opts...)
}

// seqSum is the sequential reference fold over the same blocks.
func seqSum(n int, f func(i int) float64) float64 {
	nb := numBlocks(n)
	var total float64
	for b := 0; b < nb; b++ {
		lo, hi := blockRange(b, n)
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		total += s
	}
	return total
}

// norm2 returns the Euclidean norm of v computed with the deterministic
// block reduction, sequentially (MG's twin takes its residual norms so).
func norm2(v []float64) float64 {
	return math.Sqrt(seqSum(len(v), func(i int) float64 { return v[i] * v[i] }))
}
