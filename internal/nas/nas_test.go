package nas

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"hybridloop"
)

func testPool(t *testing.T) *hybridloop.Pool {
	t.Helper()
	p := hybridloop.NewPool(4, hybridloop.WithSeed(42))
	t.Cleanup(p.Close)
	return p
}

var testStrategies = []hybridloop.Strategy{
	hybridloop.Hybrid, hybridloop.Static, hybridloop.DynamicStealing,
	hybridloop.DynamicSharing, hybridloop.Guided,
}

// --- shared reduction helpers ---

func TestParallelSumMatchesSeq(t *testing.T) {
	p := testPool(t)
	f := func(i int) float64 { return math.Sin(float64(i)) * 1e-3 }
	for _, n := range []int{0, 1, 100, reduceBlock, reduceBlock + 1, 10 * reduceBlock} {
		want := seqSum(n, f)
		for _, s := range testStrategies {
			got := parallelSum(p, make([]float64, numBlocks(n)), n, f, hybridloop.WithStrategy(s))
			if got != want {
				t.Fatalf("n=%d %v: parallelSum = %v, want %v (must be bitwise equal)", n, s, got, want)
			}
		}
	}
}

// --- EP ---

func TestEPParallelMatchesSequentialExactly(t *testing.T) {
	p := testPool(t)
	e := EP{M: 16, LogBlock: 8}
	want := e.Sequential()
	for _, s := range testStrategies {
		got := e.Parallel(p, hybridloop.WithStrategy(s))
		if got != want {
			t.Fatalf("%v: EP parallel %+v != sequential %+v", s, got, want)
		}
	}
}

func TestEPStatisticalSanity(t *testing.T) {
	// The accepted fraction of the polar method is pi/4 ~ 0.785, and the
	// Gaussian sums should be near zero relative to the sample count.
	e := EP{M: 18, LogBlock: 10}
	r := e.Sequential()
	pairsTried := int64(1) << (e.M - 1)
	frac := float64(r.Pairs) / float64(pairsTried)
	if math.Abs(frac-math.Pi/4) > 0.01 {
		t.Errorf("acceptance fraction %.4f, want ~%.4f", frac, math.Pi/4)
	}
	if math.Abs(r.Sx)/float64(r.Pairs) > 0.02 || math.Abs(r.Sy)/float64(r.Pairs) > 0.02 {
		t.Errorf("Gaussian sums too far from zero: sx=%v sy=%v pairs=%d", r.Sx, r.Sy, r.Pairs)
	}
	// Annulus counts must decrease sharply (Gaussian tails).
	if !(r.Q[0] > r.Q[1] && r.Q[1] > r.Q[2]) {
		t.Errorf("annulus counts not decreasing: %v", r.Q)
	}
}

func TestEPBlockDecompositionIndependent(t *testing.T) {
	// Changing the block size re-slices the same global LCG stream: the
	// discrete outputs (annulus counts, accepted pairs) must be identical;
	// the floating-point sums may differ only by reassociation error.
	a := EP{M: 14, LogBlock: 9}.Sequential()
	b := EP{M: 14, LogBlock: 7}.Sequential()
	if a.Q != b.Q || a.Pairs != b.Pairs {
		t.Fatalf("block size changed EP counts: %+v vs %+v", a.Q, b.Q)
	}
	if math.Abs(a.Sx-b.Sx) > 1e-9*(1+math.Abs(a.Sx)) ||
		math.Abs(a.Sy-b.Sy) > 1e-9*(1+math.Abs(a.Sy)) {
		t.Fatalf("block size changed EP sums beyond reassociation error: %+v vs %+v", a, b)
	}
}

// --- IS ---

// TestISParallelMatchesSequential holds the keys the pool generates, and
// their ranks, to the twin's on pools of 1, 2 and 4 workers; N is not a
// multiple of the generation block, so the last block is short.
func TestISParallelMatchesSequential(t *testing.T) {
	is := IS{N: 3*genBlock + 1234, MaxKey: 512, Iterations: 3}
	want := is.Sequential()
	for _, workers := range []int{1, 2, 4} {
		p := hybridloop.NewPool(workers, hybridloop.WithSeed(42))
		for _, s := range testStrategies {
			equalRanks(t, fmt.Sprintf("W=%d %v", workers, s), is.Parallel(p, hybridloop.WithStrategy(s)), want)
		}
		p.Close()
	}
}

func TestISRanksValid(t *testing.T) {
	p := testPool(t)
	is := IS{N: 30000, MaxKey: 1 << 11}
	r := is.Parallel(p)
	if err := VerifyRanks(r.Keys, r.Ranks); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRanksCatchesCorruption(t *testing.T) {
	is := IS{N: 1000, MaxKey: 64, Iterations: 1}
	r := is.Sequential()
	if err := VerifyRanks(r.Keys, r.Ranks); err != nil {
		t.Fatalf("valid ranking rejected: %v", err)
	}
	bad := append([]int32(nil), r.Ranks...)
	bad[0], bad[1] = bad[1], bad[0]
	if r.Keys[0] != r.Keys[1] { // swap breaks order unless keys equal
		if err := VerifyRanks(r.Keys, bad); err == nil {
			t.Fatal("corrupted ranking accepted")
		}
	}
	bad2 := append([]int32(nil), r.Ranks...)
	bad2[5] = bad2[6]
	if err := VerifyRanks(r.Keys, bad2); err == nil {
		t.Fatal("duplicate rank accepted")
	}
}

// --- CG ---

func TestCGMatrixSymmetricPositiveDefinite(t *testing.T) {
	c := CG{N: 300, NonzerosPerRow: 5}
	a := c.Matrix()
	// Symmetry: collect (i,j,v) and check the transpose entry matches.
	vals := map[[2]int32]float64{}
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			vals[[2]int32{int32(i), a.Col[k]}] = a.Val[k]
		}
	}
	for key, v := range vals {
		if tv, ok := vals[[2]int32{key[1], key[0]}]; !ok || tv != v {
			t.Fatalf("matrix not symmetric at (%d,%d)", key[0], key[1])
		}
	}
	// Strict diagonal dominance (implies PD for symmetric matrices).
	for i := 0; i < a.N; i++ {
		var diag, off float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				diag = a.Val[k]
			} else {
				off += math.Abs(a.Val[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: %v <= %v", i, diag, off)
		}
	}
}

func TestCGParallelMatchesSequentialExactly(t *testing.T) {
	p := testPool(t)
	c := CG{N: 500, NIters: 3, InnerIters: 10}
	a := c.Matrix()
	want := c.SequentialOn(a)
	for _, s := range testStrategies {
		got := c.ParallelOn(p, a, hybridloop.WithStrategy(s))
		if got.Zeta != want.Zeta || got.Residual != want.Residual {
			t.Fatalf("%v: CG parallel (zeta=%v, res=%v) != sequential (zeta=%v, res=%v)",
				s, got.Zeta, got.Residual, want.Zeta, want.Residual)
		}
	}
}

func TestCGSolvesSystem(t *testing.T) {
	c := CG{N: 800, NIters: 2, InnerIters: 25}
	r := c.Sequential()
	// b = x has norm sqrt(N); after 25 CG iterations on a well-conditioned
	// diagonally dominant system the residual should be tiny.
	if r.Residual > 1e-6*math.Sqrt(float64(c.N)) {
		t.Errorf("CG residual %v too large", r.Residual)
	}
	// Zeta estimates should settle down (successive difference shrinks).
	zs := r.Zetas
	if len(zs) < 2 {
		t.Fatal("missing zeta history")
	}
	if math.Abs(zs[len(zs)-1]-zs[len(zs)-2]) > math.Abs(zs[1]-zs[0])+1e-12 {
		t.Errorf("zeta not converging: %v", zs)
	}
}

// --- MG ---

func TestMGResidualContracts(t *testing.T) {
	m := MG{Log2N: 4, Cycles: 4}
	r := m.Sequential()
	if r.InitialResidual == 0 {
		t.Fatal("zero initial residual")
	}
	prev := r.InitialResidual
	for i, rn := range r.Residuals {
		if rn >= prev {
			t.Fatalf("cycle %d: residual %v did not shrink from %v", i, rn, prev)
		}
		prev = rn
	}
	if r.Final() > 0.2*r.InitialResidual {
		t.Errorf("after %d cycles residual only %v of initial", m.Cycles, r.Final()/r.InitialResidual)
	}
}

func TestMGParallelMatchesSequentialExactly(t *testing.T) {
	p := testPool(t)
	m := MG{Log2N: 4, Cycles: 2}
	want := m.Sequential()
	for _, s := range testStrategies {
		got := m.Parallel(p, hybridloop.WithStrategy(s))
		if got.InitialResidual != want.InitialResidual {
			t.Fatalf("%v: initial residual differs", s)
		}
		for i := range want.Residuals {
			if got.Residuals[i] != want.Residuals[i] {
				t.Fatalf("%v: cycle %d residual %v != %v", s, i, got.Residuals[i], want.Residuals[i])
			}
		}
	}
}

// --- FT ---

func TestFFT1KnownTransform(t *testing.T) {
	// FFT of a delta is all ones; FFT of ones is a scaled delta.
	a := make([]complex128, 8)
	a[0] = 1
	fft1(a, -1)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta transform[%d] = %v, want 1", i, v)
		}
	}
	for i := range a {
		a[i] = 1
	}
	fft1(a, -1)
	if cmplx.Abs(a[0]-8) > 1e-12 {
		t.Fatalf("DC bin = %v, want 8", a[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(a[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, a[i])
		}
	}
}

func TestFTRoundTrip(t *testing.T) {
	f := FT{N1: 16, N2: 8, N3: 8}
	if err := f.RoundTripError(); err > 1e-12 {
		t.Fatalf("FFT round-trip error %v", err)
	}
}

// TestFTParallelMatchesSequentialExactly runs a volume smaller than one
// generation block (2048 elements) and one of four blocks.
func TestFTParallelMatchesSequentialExactly(t *testing.T) {
	p := testPool(t)
	for _, f := range []FT{{N1: 16, N2: 16, N3: 8, Iterations: 3}, {N1: 64, N2: 32, N3: 32, Iterations: 1}} {
		want := f.Sequential()
		for _, s := range testStrategies {
			got := f.Parallel(p, hybridloop.WithStrategy(s))
			for i := range want.Checksums {
				if got.Checksums[i] != want.Checksums[i] {
					t.Fatalf("%dx%dx%d %v: checksum %d = %v, want %v", f.N1, f.N2, f.N3, s, i, got.Checksums[i], want.Checksums[i])
				}
			}
		}
	}
}

func TestFTEvolutionDamps(t *testing.T) {
	// The evolution factors are exp(negative * t * |k|^2): checksum
	// magnitude of the high-frequency content decays over iterations, so
	// successive checksums change smoothly and remain finite.
	f := FT{N1: 16, N2: 16, N3: 16, Iterations: 5}
	r := f.Sequential()
	if len(r.Checksums) != 5 {
		t.Fatalf("%d checksums, want 5", len(r.Checksums))
	}
	for i, c := range r.Checksums {
		if cmplx.IsNaN(c) || cmplx.IsInf(c) {
			t.Fatalf("checksum %d = %v", i, c)
		}
	}
}
