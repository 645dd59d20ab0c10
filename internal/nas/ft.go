package nas

import (
	"fmt"
	"math"
	"math/cmplx"

	"hybridloop"
	"hybridloop/internal/rng"
)

// FT is the NPB 3-D fast-Fourier-transform kernel: fill an N1 x N2 x N3
// complex array with pseudo-random values, forward-transform it once, and
// then for each of Iterations time steps multiply by the evolution factors
// exp(-4 pi^2 t |k|^2 / ...) in frequency space, inverse-transform, and
// accumulate a checksum over a fixed index progression — the NPB
// time-evolution of the heat equation by spectral methods.
//
// Each 1-D transform pass is a parallel loop over pencils (lines along the
// transformed dimension); a full 3-D FFT is three passes. Dimensions must
// be powers of two (radix-2 iterative Cooley–Tukey).
type FT struct {
	N1, N2, N3 int // array dimensions, powers of two (class S: 64x64x64)
	Iterations int // evolution steps (NPB: 6)
	Seed       uint64
}

// FTResult carries the per-iteration checksums.
type FTResult struct {
	Checksums []complex128
}

func (f FT) defaults() FT {
	if f.Iterations == 0 {
		f.Iterations = 6
	}
	if f.Seed == 0 {
		f.Seed = 314159265
	}
	for _, n := range []int{f.N1, f.N2, f.N3} {
		if n < 2 || n&(n-1) != 0 {
			panic(fmt.Sprintf("nas: FT dimensions must be powers of two >= 2, got %dx%dx%d", f.N1, f.N2, f.N3))
		}
	}
	return f
}

// fft1 performs an in-place radix-2 decimation-in-time FFT on a line of
// length n (sign = -1 forward, +1 inverse; inverse is unscaled — the
// caller divides by the total volume once, as NPB does).
func fft1(a []complex128, sign float64) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := a[i+k]
				v := a[i+k+length/2] * w
				a[i+k] = u + v
				a[i+k+length/2] = u - v
				w *= wl
			}
		}
	}
}

// ftState is the 3-D array with helpers. Layout: x[((k*N2)+j)*N1 + i],
// i fastest (dimension 1), matching NPB's Fortran column-major order.
type ftState struct {
	f      FT
	x      []complex128
	volume int
}

func (f FT) setup() *ftState {
	st := &ftState{f: f, volume: f.N1 * f.N2 * f.N3}
	st.x = make([]complex128, st.volume)
	// NPB fills the array with vranlc pseudo-randoms; any deterministic
	// full-spectrum fill preserves the kernel's character.
	g := rng.NewXoshiro256(f.Seed)
	for i := range st.x {
		st.x[i] = complex(g.Float64()-0.5, g.Float64()-0.5)
	}
	return st
}

func (st *ftState) at(i, j, k int) int { return ((k*st.f.N2)+j)*st.f.N1 + i }

// pass1 transforms all lines along dimension 1 (contiguous); the parallel
// loop runs over the N2*N3 pencils.
func (st *ftState) pass1(pf forRange, sign float64) {
	n1 := st.f.N1
	pf(st.f.N2*st.f.N3, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			fft1(st.x[p*n1:(p+1)*n1], sign)
		}
	})
}

// ftLineMax is the longest line the strided passes gather into a buffer
// on the stack; a longer one is allocated once per chunk.
const ftLineMax = 256

// pass2 transforms along dimension 2 (stride N1): pencils are (i, k)
// pairs; each gathers its line into a buffer, transforms, scatters back.
func (st *ftState) pass2(pf forRange, sign float64) {
	n1, n2 := st.f.N1, st.f.N2
	pf(st.f.N1*st.f.N3, func(lo, hi int) {
		var buf [ftLineMax]complex128
		line := buf[:min(n2, ftLineMax)]
		if n2 > ftLineMax {
			line = make([]complex128, n2)
		}
		for p := lo; p < hi; p++ {
			i, k := p%n1, p/n1
			base := st.at(i, 0, k)
			for j := 0; j < n2; j++ {
				line[j] = st.x[base+j*n1]
			}
			fft1(line, sign)
			for j := 0; j < n2; j++ {
				st.x[base+j*n1] = line[j]
			}
		}
	})
}

// pass3 transforms along dimension 3 (stride N1*N2).
func (st *ftState) pass3(pf forRange, sign float64) {
	n1, n2, n3 := st.f.N1, st.f.N2, st.f.N3
	stride := n1 * n2
	pf(n1*n2, func(lo, hi int) {
		var buf [ftLineMax]complex128
		line := buf[:min(n3, ftLineMax)]
		if n3 > ftLineMax {
			line = make([]complex128, n3)
		}
		for p := lo; p < hi; p++ {
			for k := 0; k < n3; k++ {
				line[k] = st.x[p+k*stride]
			}
			fft1(line, sign)
			for k := 0; k < n3; k++ {
				st.x[p+k*stride] = line[k]
			}
		}
	})
}

// fft3 performs the full 3-D transform (sign = -1 forward, +1 inverse).
func (st *ftState) fft3(pf forRange, sign float64) {
	st.pass1(pf, sign)
	st.pass2(pf, sign)
	st.pass3(pf, sign)
}

// freq returns the signed frequency of index i in a dimension of size n.
func freq(i, n int) float64 {
	if i >= n/2 {
		return float64(i - n)
	}
	return float64(i)
}

// evolve multiplies the frequency-space array by the NPB evolution
// factors exp(alpha * t * |k|^2) for time step t.
func (st *ftState) evolve(pf forRange, xbar []complex128, t float64) {
	const alpha = -4 * 1e-6 * math.Pi * math.Pi
	n1, n2, n3 := st.f.N1, st.f.N2, st.f.N3
	pf(n3, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			fk := freq(k, n3)
			for j := 0; j < n2; j++ {
				fj := freq(j, n2)
				for i := 0; i < n1; i++ {
					fi := freq(i, n1)
					k2 := fi*fi + fj*fj + fk*fk
					idx := st.at(i, j, k)
					st.x[idx] = xbar[idx] * complex(math.Exp(alpha*t*k2), 0)
				}
			}
		}
	})
}

// checksum is the NPB checksum: 1024 samples along a fixed modular index
// progression, normalized by the volume.
func (st *ftState) checksum() complex128 {
	var s complex128
	n1, n2, n3 := st.f.N1, st.f.N2, st.f.N3
	for q := 1; q <= 1024; q++ {
		i := q % n1
		j := (3 * q) % n2
		k := (5 * q) % n3
		s += st.x[st.at(i, j, k)]
	}
	return s / complex(float64(st.volume), 0)
}

// run executes the kernel with the given loop driver from the initial
// array in st.
func (f FT) run(pf forRange, st *ftState) FTResult {
	// Forward transform once; keep the frequency-space copy.
	st.fft3(pf, -1)
	xbar := make([]complex128, len(st.x))
	pf(len(xbar), func(lo, hi int) { copy(xbar[lo:hi], st.x[lo:hi]) })
	res := FTResult{}
	scale := complex(1/float64(st.volume), 0)
	for it := 1; it <= f.Iterations; it++ {
		st.evolve(pf, xbar, float64(it))
		st.fft3(pf, +1)
		// NPB normalizes the inverse transform by the volume.
		pf(len(st.x), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				st.x[i] *= scale
			}
		})
		res.Checksums = append(res.Checksums, st.checksum())
	}
	return res
}

// Sequential runs the kernel without parallel constructs.
func (f FT) Sequential() FTResult {
	f = f.defaults()
	return f.run(func(n int, body func(lo, hi int)) { body(0, n) }, f.setup())
}

// Parallel runs the kernel with the initial fill and pencil-parallel FFT
// passes on the pool. Identical results to Sequential: the fill gives each
// element setup's draws (parallelFill), and each pencil is transformed
// independently.
func (f FT) Parallel(p Pool, opts ...hybridloop.ForOption) FTResult {
	f = f.defaults()
	st := &ftState{f: f, volume: f.N1 * f.N2 * f.N3}
	st.x = make([]complex128, st.volume)
	parallelFill(p, opts, f.Seed, st.volume, 2, func(g *rng.Xoshiro256, lo, hi int) {
		for i := lo; i < hi; i++ {
			st.x[i] = complex(g.Float64()-0.5, g.Float64()-0.5)
		}
	})
	return f.run(func(n int, body func(lo, hi int)) {
		p.For(0, n, body, opts...)
	}, st)
}

// RoundTripError transforms a copy of the input forward and back and
// returns the max absolute elementwise error — the FFT correctness
// invariant used by tests.
func (f FT) RoundTripError() float64 {
	f = f.defaults()
	st := f.setup()
	orig := make([]complex128, len(st.x))
	copy(orig, st.x)
	seq := func(n int, body func(lo, hi int)) { body(0, n) }
	st.fft3(seq, -1)
	st.fft3(seq, +1)
	var maxErr float64
	inv := 1 / float64(st.volume)
	for i := range st.x {
		if e := cmplx.Abs(st.x[i]*complex(inv, 0) - orig[i]); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}
