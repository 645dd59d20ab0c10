package nas

import (
	"fmt"
	"math"
	"sort"

	"hybridloop"
	"hybridloop/internal/rng"
)

// CG is the NPB conjugate-gradient kernel: estimate the smallest
// eigenvalue of a sparse symmetric positive-definite matrix with the
// inverse power method, solving A z = x by NIters rounds of 25 unpre-
// conditioned conjugate-gradient iterations and computing
// zeta = Shift + 1 / (x . z) each round.
//
// The matrix is a randomly generated sparse SPD matrix in CSR form:
// NonzerosPerRow random off-diagonal entries per row, symmetrized, plus a
// dominant diagonal (NPB's makea builds a similar structure from outer
// products; the simplification keeps the irregular row lengths that give
// the kernel its scheduling character and is documented in DESIGN.md).
type CG struct {
	N              int     // matrix dimension (NPB class S: 1400, W: 7000)
	NonzerosPerRow int     // average off-diagonals per row (NPB: 7..15)
	NIters         int     // outer inverse-power iterations (NPB: 15)
	InnerIters     int     // CG iterations per solve (NPB: 25)
	Shift          float64 // eigenvalue shift (NPB: 10..20)
	Seed           uint64
}

// CGResult carries the final eigenvalue estimate and residual.
type CGResult struct {
	Zeta     float64
	Residual float64 // ||r|| of the last inner solve
	Zetas    []float64
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Val) }

func (c CG) defaults() CG {
	if c.NonzerosPerRow == 0 {
		c.NonzerosPerRow = 7
	}
	if c.NIters == 0 {
		c.NIters = 15
	}
	if c.InnerIters == 0 {
		c.InnerIters = 25
	}
	if c.Shift == 0 {
		c.Shift = 10
	}
	if c.Seed == 0 {
		c.Seed = 314159265
	}
	if c.N <= 1 {
		panic(fmt.Sprintf("nas: CG N=%d", c.N))
	}
	return c
}

// Matrix deterministically generates the sparse SPD system.
func (c CG) Matrix() *CSR {
	c = c.defaults()
	g := rng.NewXoshiro256(c.Seed)
	// Collect symmetric off-diagonal entries per row.
	type entry struct {
		col int32
		val float64
	}
	rows := make([]map[int32]float64, c.N)
	for i := range rows {
		rows[i] = make(map[int32]float64, 2*c.NonzerosPerRow)
	}
	for i := 0; i < c.N; i++ {
		for k := 0; k < c.NonzerosPerRow; k++ {
			j := g.Intn(c.N)
			if j == i {
				continue
			}
			v := g.Float64() - 0.5
			rows[i][int32(j)] += v
			rows[j][int32(i)] += v
		}
	}
	a := &CSR{N: c.N, RowPtr: make([]int32, c.N+1)}
	for i := 0; i < c.N; i++ {
		offdiag := make([]entry, 0, len(rows[i])+1)
		for j, v := range rows[i] {
			offdiag = append(offdiag, entry{j, v})
		}
		// Fold |v| in sorted column order, not map order: map iteration
		// is randomized per run, and the diagonal must be the same bits
		// every run for the golden datasets to hold.
		sort.Slice(offdiag, func(x, y int) bool { return offdiag[x].col < offdiag[y].col })
		var rowAbs float64
		for _, e := range offdiag {
			rowAbs += math.Abs(e.val)
		}
		// Dominant diagonal makes A symmetric positive definite.
		d := sort.Search(len(offdiag), func(k int) bool { return offdiag[k].col > int32(i) })
		offdiag = append(offdiag, entry{})
		copy(offdiag[d+1:], offdiag[d:])
		offdiag[d] = entry{int32(i), rowAbs + c.Shift}
		for _, e := range offdiag {
			a.Col = append(a.Col, e.col)
			a.Val = append(a.Val, e.val)
		}
		a.RowPtr[i+1] = int32(len(a.Val))
	}
	return a
}

// spmvRow computes (A x)[i].
func spmvRow(a *CSR, x []float64, i int) float64 {
	var s float64
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		s += a.Val[k] * x[a.Col[k]]
	}
	return s
}

// cgOps abstracts the vector operations so the solver body is written
// once for the sequential and parallel variants.
type cgOps struct {
	spmv func(dst, x []float64)
	dot  func(x, y []float64) float64
	axpy func(dst []float64, alpha float64, x, y []float64) // dst = alpha*x + y
}

// cgSolve runs iters CG iterations on A z = b from z = 0, returning the
// final residual norm. Mirrors the NPB conjgrad routine. r, p and q are
// the caller's scratch vectors, overwritten.
func cgSolve(iters int, ops cgOps, b, z, r, p, q []float64) float64 {
	for i := range z {
		z[i] = 0
	}
	copy(r, b)
	copy(p, b)
	rho := ops.dot(r, r)
	for it := 0; it < iters; it++ {
		ops.spmv(q, p)
		alpha := rho / ops.dot(p, q)
		ops.axpy(z, alpha, p, z)
		ops.axpy(r, -alpha, q, r)
		rho0 := rho
		rho = ops.dot(r, r)
		beta := rho / rho0
		ops.axpy(p, beta, p, r)
	}
	return math.Sqrt(rho)
}

// outer runs the NPB outer loop given the vector ops.
func (c CG) outer(a *CSR, ops cgOps) CGResult {
	n := a.N
	x := make([]float64, n)
	z := make([]float64, n)
	r, p, q := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	res := CGResult{}
	for it := 0; it < c.NIters; it++ {
		res.Residual = cgSolve(c.InnerIters, ops, x, z, r, p, q)
		zeta := c.Shift + 1/ops.dot(x, z)
		res.Zetas = append(res.Zetas, zeta)
		res.Zeta = zeta
		// x = z / ||z||
		inv := 1 / math.Sqrt(ops.dot(z, z))
		for i := range x {
			x[i] = z[i] * inv
		}
	}
	return res
}

// Sequential runs the kernel without parallel constructs.
func (c CG) Sequential() CGResult {
	c = c.defaults()
	a := c.Matrix()
	return c.SequentialOn(a)
}

// SequentialOn runs the outer loop on a pre-built matrix.
func (c CG) SequentialOn(a *CSR) CGResult {
	c = c.defaults()
	ops := cgOps{
		spmv: func(dst, x []float64) {
			for i := 0; i < a.N; i++ {
				dst[i] = spmvRow(a, x, i)
			}
		},
		dot: func(x, y []float64) float64 {
			return seqSum(a.N, func(i int) float64 { return x[i] * y[i] })
		},
		axpy: func(dst []float64, alpha float64, x, y []float64) {
			for i := range dst {
				dst[i] = alpha*x[i] + y[i]
			}
		},
	}
	return c.outer(a, ops)
}

// Parallel runs the kernel with parallel matvec, dot and axpy loops on
// the pool. Dots use the deterministic block reduction, so results match
// Sequential bitwise.
func (c CG) Parallel(p Pool, opts ...hybridloop.ForOption) CGResult {
	c = c.defaults()
	a := c.Matrix()
	return c.ParallelOn(p, a, opts...)
}

// ParallelOn runs the outer loop on a pre-built matrix.
func (c CG) ParallelOn(p Pool, a *CSR, opts ...hybridloop.ForOption) CGResult {
	c = c.defaults()
	partials := make([]float64, numBlocks(a.N)) // every dot's scratch
	ops := cgOps{
		spmv: func(dst, x []float64) {
			p.For(0, a.N, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = spmvRow(a, x, i)
				}
			}, opts...)
		},
		dot: func(x, y []float64) float64 {
			return parallelSum(p, partials, a.N, func(i int) float64 { return x[i] * y[i] }, opts...)
		},
		axpy: func(dst []float64, alpha float64, x, y []float64) {
			p.For(0, len(dst), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst[i] = alpha*x[i] + y[i]
				}
			}, opts...)
		},
	}
	return c.outer(a, ops)
}
