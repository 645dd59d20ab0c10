package main

import (
	"fmt"
	"math"
	"time"

	"hybridloop"
	"hybridloop/internal/rng"
)

var workloadNames = []string{"iter_fine", "skew_coarse", "nas_suite", "serve_mixed"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "iter_fine":
		return &iterFine{kernel: stencil3}, nil
	case "skew_coarse":
		return &skewCoarse{kernel: sqrtChain}, nil
	case "nas_suite":
		return &nasSuite{}, nil
	case "serve_mixed":
		return &serveMixed{mix: mix64}, nil
	case "":
		return nil, fmt.Errorf("-workload is required: one of %v", workloadNames)
	}
	return nil, fmt.Errorf("unknown workload %q: want one of %v", name, workloadNames)
}

// iter_fine: consecutive fine-grained sweeps over two cache-resident arrays
// from one client — the paper's iterative regime, where launch and join,
// the per-chunk tax and the body each make up about a third of an op.

const (
	iterN        = 16384 // float64 elements: two 128 KB arrays, L2-resident
	iterChunk    = 64
	iterBatch    = 32    // ops per latency sample: two clock reads per op would show
	iterBurst    = 128   // ops per pair: about 4.5 ms on the pool
	iterCalib    = 64    // serial sweeps per pair: about 1.4 ms
	iterPairs    = 60    // pairs per epoch
	iterTraceOne = 16    // in traced epochs, one op in 16 records spans
	iterSerial   = 20000 // serial sweeps in set-up's reference pass
	iterNominal  = 28000 // ns per serial sweep on the reference host, typically
)

type iterFine struct {
	base
	a, b    []float64 // ping-pong: even ops read a and write b
	ca, cb  []float64 // the calibration's own lattice, so that only workers touch a and b
	scratch []float64
	opts    []hybridloop.ForOption
	ab, ba  func(lo, hi int)
	// kernel computes dst[lo:hi] from src; the smoke test swaps in a broken
	// one to see the run fail.
	kernel func(dst, src []float64, lo, hi int)

	ct        *callTrace
	traceAB   func(lo, hi int)
	traceOpts []hybridloop.ForOption
}

// stencil3 is a three-point stencil through the logistic map, which keeps
// the lattice bounded and changing from sweep to sweep, so a skipped chunk
// leaves stale values that differ from the expected ones.
func stencil3(dst, src []float64, lo, hi int) {
	n := len(src)
	for i := lo; i < hi; i++ {
		l, r := i-1, i+1
		if l < 0 {
			l = n - 1
		}
		if r == n {
			r = 0
		}
		m := (src[l] + src[i] + src[r]) * (1.0 / 3)
		dst[i] = 3.9 * m * (1 - m)
	}
}

func (w *iterFine) sizes() map[string]int {
	return map[string]int{"n": iterN, "chunk": iterChunk, "ops_per_epoch": w.opsEpoch,
		"ops_per_pair": iterBurst, "serial_sweeps_per_pair": iterCalib}
}

func (w *iterFine) clients() int { return 1 }

func (w *iterFine) setup() {
	w.opsEpoch, w.nominalNs = w.scaled(iterPairs, 1)*iterBurst, iterNominal
	w.pool = hybridloop.NewPool(w.W, hybridloop.WithSeed(w.seed))
	g := rng.NewXoshiro256(w.seed)
	w.a, w.b, w.scratch = make([]float64, iterN), make([]float64, iterN), make([]float64, iterN)
	w.ca, w.cb = make([]float64, iterN), make([]float64, iterN)
	for i := range w.a {
		w.a[i] = g.Float64()
		w.ca[i] = w.a[i]
	}
	w.opts = []hybridloop.ForOption{hybridloop.WithChunk(iterChunk)}
	w.ab = func(lo, hi int) { w.kernel(w.b, w.a, lo, hi) }
	w.ba = func(lo, hi int) { w.kernel(w.a, w.b, lo, hi) }
	w.lat.alloc(1 << 16)

	// Serial reference pass: the calibration's sweeps on one goroutine, for
	// the host's speed during this set-up.
	sweeps := max(2, iterSerial/w.scale/2*2)
	t0 := time.Now()
	for k := 0; k < sweeps; k += 2 {
		stencil3(w.cb, w.ca, 0, iterN)
		stencil3(w.ca, w.cb, 0, iterN)
	}
	w.serialNs = float64(time.Since(t0).Nanoseconds()) / float64(sweeps)
}

func (w *iterFine) epoch(t *tracer) {
	if t != nil && (w.ct == nil || w.ct.t != t) {
		w.ct = t.client(0, iterN, true)
		w.traceAB = w.ct.body(w.ab)
		w.traceOpts = []hybridloop.ForOption{hybridloop.WithChunk(iterChunk), hybridloop.WithRecorder(w.ct)}
	}
	for op := 0; op < w.opsEpoch; op += iterBurst {
		w.pair(iterCalib, w.calibrate, iterBurst, func() { w.burst(t, op) })
	}
}

// calibrate is the serial side of a pair: the same sweeps on one goroutine.
func (w *iterFine) calibrate() {
	for k := 0; k < iterCalib; k += 2 {
		stencil3(w.cb, w.ca, 0, iterN)
		stencil3(w.ca, w.cb, 0, iterN)
	}
}

// burst issues iterBurst ops, the first of which is the epoch's op number op.
func (w *iterFine) burst(t *tracer, op int) {
	p := w.pool
	for end := op + iterBurst; op < end; op += iterBatch {
		t0 := time.Now()
		for k := 0; k < iterBatch; k += 2 {
			if t != nil && (op+k)%iterTraceOne == 0 {
				w.ct.begin(callFor, iterN)
				p.For(0, iterN, w.traceAB, w.traceOpts...)
				w.ct.end()
			} else {
				p.For(0, iterN, w.ab, w.opts...)
			}
			p.For(0, iterN, w.ba, w.opts...)
		}
		w.lat.add(time.Since(t0), iterBatch)
	}
}

// check recomputes the epoch's last sweep (b into a) serially from its
// input, which the sweep left untouched, and compares bit for bit.
func (w *iterFine) check() int {
	stencil3(w.scratch, w.b, 0, iterN)
	for i, want := range w.scratch {
		if math.Float64bits(w.a[i]) != math.Float64bits(want) {
			return 1
		}
	}
	return 0
}

func (w *iterFine) extra(vals map[string]float64) { w.ct.sameCore(vals) }

func (w *iterFine) close() { w.closePool() }

// skew_coarse: loops whose iteration cost grows with the square of the
// index, so the static split leaves one worker an eighth of the work and the
// rest must move by range stealing — the paper's unbalanced microbenchmark.
// An op is a pair of loops, one with the heavy end at the high indices and
// one with it at the low indices, in the order the seed picks: the runtime is
// about a tenth faster on one orientation, so an op of one orientation alone
// would make seeds unequal.

const (
	skewN       = 2048
	skewChunk   = 8
	skewBurst   = 3     // ops (each two loops) per pair: about 12 ms on the pool
	skewPairs   = 16    // pairs per epoch; a pair's calibration is one serial op, about 8 ms
	skewDivisor = 4400  // sqrt-steps of iteration i = rank(i)²/skewDivisor + 1
	skewSerial  = 50    // serial ops in set-up's reference pass
	skewNominal = 7.6e6 // ns per serial op on the reference host, typically
)

type skewCoarse struct {
	base
	x         []float64
	lowFirst  bool         // the seed's choice of the orientation that leads an op
	steps     [2][]int32   // per iteration; [0] heavy at the high indices, [1] at the low
	out       [2][]float64 // one output per orientation, so both loops of an op can be checked
	scratch   []float64
	opts      []hybridloop.ForOption
	bias      float64 // the op's number, part of its input
	body      [2]func(lo, hi int)
	kernel    func(out, x []float64, steps []int32, bias float64, lo, hi int)
	op        int
	ct        *callTrace
	traceBody [2]func(lo, hi int)
	traceOpts []hybridloop.ForOption
}

// sqrtChain runs steps[i] dependent square roots per iteration. The chain
// forgets its start, so the output also carries the op's bias and the input
// directly: two ops never agree on an element.
func sqrtChain(out, x []float64, steps []int32, bias float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := x[i] + bias
		for k := steps[i]; k > 0; k-- {
			s = math.Sqrt(s + 1.5)
		}
		out[i] = s + x[i] + bias
	}
}

// skewLowFirst is the seed's choice of which orientation leads each op.
func skewLowFirst(seed uint64) bool {
	return rng.NewSplitMix64(seed).Next()&1 == 1
}

func (w *skewCoarse) sizes() map[string]int {
	return map[string]int{"n": skewN, "chunk": skewChunk, "loops_per_op": 2, "ops_per_epoch": w.opsEpoch,
		"ops_per_pair": skewBurst, "serial_ops_per_pair": 1, "step_divisor": skewDivisor}
}

func (w *skewCoarse) clients() int { return 1 }

func (w *skewCoarse) setup() {
	w.opsEpoch, w.nominalNs = w.scaled(skewPairs, 1)*skewBurst, skewNominal
	w.pool = hybridloop.NewPool(w.W, hybridloop.WithSeed(w.seed))
	w.lowFirst = skewLowFirst(w.seed)
	g := rng.NewXoshiro256(w.seed)
	w.x, w.scratch = make([]float64, skewN), make([]float64, skewN)
	for i := range w.x {
		w.x[i] = g.Float64()
	}
	for o := range w.steps {
		w.steps[o], w.out[o] = make([]int32, skewN), make([]float64, skewN)
		for i := range w.steps[o] {
			rank := i
			if o == 1 {
				rank = skewN - 1 - i
			}
			w.steps[o][i] = int32(rank*rank/skewDivisor + 1)
		}
		w.body[o] = func(lo, hi int) { w.kernel(w.out[o], w.x, w.steps[o], w.bias, lo, hi) }
	}
	w.opts = []hybridloop.ForOption{hybridloop.WithChunk(skewChunk)}
	w.lat.alloc(1 << 14)
	w.op = 0

	// Serial reference pass, for the host's speed during this set-up.
	ops := max(1, skewSerial/w.scale)
	t0 := time.Now()
	for k := 0; k < ops; k++ {
		w.bias = float64(k)
		w.calibrate()
	}
	w.serialNs = float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

func (w *skewCoarse) epoch(t *tracer) {
	if t != nil && (w.ct == nil || w.ct.t != t) {
		w.ct = t.client(0, skewN, true)
		w.traceBody = [2]func(lo, hi int){w.ct.body(w.body[0]), w.ct.body(w.body[1])}
		w.traceOpts = []hybridloop.ForOption{hybridloop.WithChunk(skewChunk), hybridloop.WithRecorder(w.ct)}
	}
	for k := 0; k < w.opsEpoch; k += skewBurst {
		w.pair(1, w.calibrate, skewBurst, func() { w.burst(t) })
	}
}

// calibrate is the serial side of a pair: one op on one goroutine.
func (w *skewCoarse) calibrate() {
	sqrtChain(w.scratch, w.x, w.steps[0], w.bias, 0, skewN)
	sqrtChain(w.scratch, w.x, w.steps[1], w.bias, 0, skewN)
}

func (w *skewCoarse) burst(t *tracer) {
	first := 0
	if w.lowFirst {
		first = 1
	}
	for k := 0; k < skewBurst; k++ {
		w.op++
		w.bias = float64(w.op)
		t0 := time.Now()
		for _, o := range [2]int{first, 1 - first} {
			if t != nil {
				w.ct.begin(callFor, skewN)
				w.pool.For(0, skewN, w.traceBody[o], w.traceOpts...)
				w.ct.end()
			} else {
				w.pool.For(0, skewN, w.body[o], w.opts...)
			}
		}
		w.lat.add(time.Since(t0), 1)
	}
}

// check recomputes both loops of the epoch's last op serially and compares
// bit for bit.
func (w *skewCoarse) check() int {
	for o := range w.out {
		sqrtChain(w.scratch, w.x, w.steps[o], w.bias, 0, skewN)
		for i, want := range w.scratch {
			if math.Float64bits(w.out[o][i]) != math.Float64bits(want) {
				return 1
			}
		}
	}
	return 0
}

func (w *skewCoarse) extra(vals map[string]float64) { w.ct.sameCore(vals) }

func (w *skewCoarse) close() { w.closePool() }
