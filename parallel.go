package hybridloop

import (
	"time"

	"hybridloop/internal/loop"
)

// WithWeight attaches a per-iteration cost hint to a loop: Static and
// Hybrid then partition by equal total weight instead of equal iteration
// count, so a predictably unbalanced loop is balanced already in the
// static phase (the annotation-driven extension discussed in the paper's
// related work); the claiming heuristic and work stealing absorb whatever
// the hint gets wrong. Purely dynamic strategies ignore the hint.
func WithWeight(weight func(i int) float64) ForOption {
	return func(o *loop.Options) { o.Weight = weight }
}

// Reduce computes a parallel reduction over [begin, end): chunk maps each
// range of iterations to a partial value, and combine folds partials. The
// iteration space is cut at fixed block boundaries independent of
// scheduling and partials are combined in block order, so for a given
// blockSize the result is deterministic — identical across runs, worker
// counts and strategies — as long as combine is associative over the
// block partials (it need not be commutative).
//
// blockSize <= 0 selects a default of 1024 iterations per block.
func Reduce[T any](p *Pool, begin, end, blockSize int, identity T,
	chunk func(lo, hi int) T, combine func(a, b T) T, opts ...ForOption) T {
	if end <= begin {
		return identity
	}
	if blockSize <= 0 {
		blockSize = loop.SumBlock
	}
	n := end - begin
	nb := (n + blockSize - 1) / blockSize
	partials := make([]T, nb)
	// skip = 2 attributes an Auto inner loop to Reduce's caller: the
	// tuning profile belongs to the user's reduction, not to this file.
	p.forSkip(0, nb, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := begin + b*blockSize
			hi := lo + blockSize
			if hi > end {
				hi = end
			}
			partials[b] = chunk(lo, hi)
		}
	}, opts, 2)
	acc := identity
	for _, pv := range partials {
		acc = combine(acc, pv)
	}
	return acc
}

// Sum is Reduce specialized to float64 addition over a per-index value
// function — the common dot-product/norm shape — with the default block
// size, and allocation-free: the blocks' sums live in the loop's recycled
// frame. Like Reduce it adds block sums in block order, so its result is
// the same bit for bit across runs, worker counts and strategies, and
// under admission control a rejected call sums the same blocks inline.
//
//sched:noalloc
func Sum(p *Pool, begin, end int, f func(i int) float64, opts ...ForOption) float64 {
	if end <= begin {
		return 0
	}
	if p.admitOrInline() {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		return loop.SerialSum(begin, end, f)
	} else if p.gate != nil {
		defer p.gate.Release()
	}
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	return r.Sum(begin, end, f)
}

// For2D executes body over the 2-D iteration space [r0, r1) x [c0, c1) in
// tiles of tileR x tileC. Tiles are scheduled as a 1-D parallel loop in
// row-major tile order, so with the Hybrid or Static strategy the same
// tiles return to the same workers across repeated sweeps (2-D loop
// affinity). Tile sizes <= 0 pick roughly square tiles that yield about
// 8 tiles per worker.
func (p *Pool) For2D(r0, r1, c0, c1, tileR, tileC int,
	body func(rlo, rhi, clo, chi int), opts ...ForOption) {
	rows, cols := r1-r0, c1-c0
	if rows <= 0 || cols <= 0 {
		return
	}
	if tileR <= 0 || tileC <= 0 {
		t := defaultTile(rows, cols, p.Workers())
		if tileR <= 0 {
			tileR = t
		}
		if tileC <= 0 {
			tileC = t
		}
	}
	tilesR := (rows + tileR - 1) / tileR
	tilesC := (cols + tileC - 1) / tileC
	// One tile per loop iteration: the chunking below must not merge
	// tiles across a row boundary into one body call, so the body is
	// invoked per tile inside the chunk.
	p.forSkip(0, tilesR*tilesC, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			tr, tc := t/tilesC, t%tilesC
			rlo := r0 + tr*tileR
			rhi := rlo + tileR
			if rhi > r1 {
				rhi = r1
			}
			clo := c0 + tc*tileC
			chi := clo + tileC
			if chi > c1 {
				chi = c1
			}
			body(rlo, rhi, clo, chi)
		}
	}, append([]ForOption{WithChunk(1)}, opts...), 2)
}

// defaultTile picks a square-ish power-of-two tile size giving about 8
// tiles per worker: the largest power of two t with t² ≤ area/(8·workers),
// at least 1. The doubling condition divides instead of multiplying, so it
// cannot overflow — degenerate inputs (a tiny grid, a worker count
// exceeding the grid, an area near the int limit) all land on a valid
// tile size instead of looping forever or returning zero.
func defaultTile(rows, cols, workers int) int {
	if workers < 1 {
		workers = 1
	}
	target := rows * cols / (8 * workers)
	t := 1
	for 2*t <= target/(2*t) {
		t *= 2
	}
	return t
}
