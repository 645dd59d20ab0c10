package main

import (
	"reflect"
	"sync/atomic"
	"time"

	"hybridloop"
	"hybridloop/internal/nas"
)

// nas_suite: passes over the five NAS kernels — whole programs, where kernel
// bodies and memory traffic dominate and the scheduler is a few per cent. It
// is the no-change control for scheduler work, and it contains many loop
// sizes (the MG levels) rather than one.

const (
	// nasPasses is the number of passes (ops) in an epoch. A pass is five
	// pairs, one a kernel: its Sequential() twin, then the kernel on the pool.
	nasPasses = 1
	// nasNominal is the time of the five Sequential() twins, in ns, on the
	// reference host.
	nasNominal = 270e6
)

type nasKernels struct {
	ep nas.EP
	is nas.IS
	cg nas.CG
	mg nas.MG
	ft nas.FT
}

type nasResults struct {
	ep nas.EPResult
	is nas.ISResult
	cg nas.CGResult
	mg nas.MGResult
	ft nas.FTResult
}

var nasKernelNames = [...]string{"ep", "is", "cg", "mg", "ft"}

func nasSizes(seed uint64, scale int) nasKernels {
	if scale > 1 { // smoke-test sizes
		return nasKernels{
			ep: nas.EP{M: 14, LogBlock: 8, Seed: seed | 1},
			is: nas.IS{N: 1 << 13, MaxKey: 1 << 8, Iterations: 2, Seed: seed},
			cg: nas.CG{N: 400, NIters: 1, InnerIters: 10, Seed: seed},
			mg: nas.MG{Log2N: 3, Cycles: 2, Seed: seed},
			ft: nas.FT{N1: 8, N2: 8, N3: 8, Iterations: 2, Seed: seed},
		}
	}
	return nasKernels{
		// EP's seed is an LCG state and must be odd.
		ep: nas.EP{M: 23, Seed: seed | 1},
		is: nas.IS{N: 1 << 21, MaxKey: 1 << 11, Iterations: 3, Seed: seed},
		cg: nas.CG{N: 14000, NIters: 2, InnerIters: 25, Seed: seed},
		mg: nas.MG{Log2N: 5, Cycles: 6, Seed: seed},
		ft: nas.FT{N1: 64, N2: 64, N3: 32, Iterations: 3, Seed: seed},
	}
}

type nasSuite struct {
	base
	k        nasKernels
	matrix   *nas.CSR
	want     nasResults
	got      [nasPasses]nasResults
	twin     [nasPasses]nasResults // what the calibrations of the pass computed
	kernelMs [len(nasKernelNames)][]float64

	ct        *callTrace
	traceOpts []hybridloop.ForOption
	chunks    chunkCounter
	tracedOps int
}

// chunkCounter is the Recorder of the traced NAS passes: the kernels' loop
// bodies are not the benchmark's, so their chunks are counted, not timed.
type chunkCounter struct {
	perWorker [maxWorkers]struct {
		n atomic.Int64
		_ [56]byte
	}
}

func (c *chunkCounter) Record(worker, lo, hi int) { c.perWorker[worker].n.Add(1) }

func (w *nasSuite) sizes() map[string]int {
	return map[string]int{
		"ep_m": w.k.ep.M, "is_n": w.k.is.N, "is_maxkey": w.k.is.MaxKey, "is_iters": w.k.is.Iterations,
		"cg_n": w.k.cg.N, "cg_niters": w.k.cg.NIters, "cg_inner": w.k.cg.InnerIters,
		"mg_log2n": w.k.mg.Log2N, "mg_cycles": w.k.mg.Cycles,
		"ft_n1": w.k.ft.N1, "ft_n2": w.k.ft.N2, "ft_n3": w.k.ft.N3, "ft_iters": w.k.ft.Iterations,
		"ops_per_epoch": w.opsEpoch,
	}
}

func (w *nasSuite) clients() int { return 1 }

func (w *nasSuite) setup() {
	w.opsEpoch, w.nominalNs = nasPasses, nasNominal
	w.pool = hybridloop.NewPool(w.W, hybridloop.WithSeed(w.seed))
	w.k = nasSizes(w.seed, w.scale)
	w.matrix = w.k.cg.Matrix()
	w.lat.alloc(1 << 10)

	t0 := time.Now()
	w.want = nasResults{
		ep: w.k.ep.Sequential(),
		is: w.k.is.Sequential(),
		cg: w.k.cg.SequentialOn(w.matrix),
		mg: w.k.mg.Sequential(),
		ft: w.k.ft.Sequential(),
	}
	w.serialNs = float64(time.Since(t0).Nanoseconds())
}

// kernel makes one pair of a pass: the kernel's sequential twin as the
// calibration, then the kernel on the pool, in traced epochs inside a span.
func (w *nasSuite) kernel(t *tracer, i int, kind uint8, seq func(), par func(opts ...hybridloop.ForOption)) pairSample {
	p := w.timePair(seq, func() {
		if t != nil {
			w.ct.begin(kind, 0)
			par(w.traceOpts...)
			w.ct.end()
		} else {
			par()
		}
	})
	if t == nil {
		w.kernelMs[i] = append(w.kernelMs[i], p.wallNs/1e6)
	}
	return p
}

func (w *nasSuite) epoch(t *tracer) {
	if t != nil && (w.ct == nil || w.ct.t != t) {
		w.ct = t.client(0, 0, false)
		w.traceOpts = []hybridloop.ForOption{hybridloop.WithRecorder(&w.chunks)}
	}
	p, k := w.pool, &w.k
	for pass := 0; pass < nasPasses; pass++ {
		got, twin := &w.got[pass], &w.twin[pass]
		sum := w.kernel(t, 0, callEP, func() { twin.ep = k.ep.Sequential() }, func(o ...hybridloop.ForOption) { got.ep = k.ep.Parallel(p, o...) })
		sum.add(w.kernel(t, 1, callIS, func() { twin.is = k.is.Sequential() }, func(o ...hybridloop.ForOption) { got.is = k.is.Parallel(p, o...) }))
		sum.add(w.kernel(t, 2, callCG, func() { twin.cg = k.cg.SequentialOn(w.matrix) }, func(o ...hybridloop.ForOption) { got.cg = k.cg.ParallelOn(p, w.matrix, o...) }))
		sum.add(w.kernel(t, 3, callMG, func() { twin.mg = k.mg.Sequential() }, func(o ...hybridloop.ForOption) { got.mg = k.mg.Parallel(p, o...) }))
		sum.add(w.kernel(t, 4, callFT, func() { twin.ft = k.ft.Sequential() }, func(o ...hybridloop.ForOption) { got.ft = k.ft.Parallel(p, o...) }))
		// The pass's latency is the time of its five kernels on the pool.
		w.lat.add(time.Duration(sum.wallNs), 1)
		w.record(sum, 1, 1)
		if t != nil {
			w.tracedOps++
		}
	}
}

// check holds every kernel result of each pass to its Sequential() twin from
// set-up, bit for bit, and IS also to its own ranking invariants. The twins
// the pass itself ran as calibrations must agree with set-up's too.
func (w *nasSuite) check() int {
	failed := 0
	for pass := range w.got {
		got, twin := &w.got[pass], &w.twin[pass]
		if !reflect.DeepEqual(*got, w.want) || !reflect.DeepEqual(*twin, w.want) ||
			nas.VerifyRanks(got.is.Keys, got.is.Ranks) != nil {
			failed++
		}
		*got, *twin = nasResults{}, nasResults{}
	}
	return failed
}

func (w *nasSuite) extra(vals map[string]float64) {
	for i, name := range nasKernelNames {
		vals["nas."+name+"_ms"] = percentileOf(w.kernelMs[i], 0.50)
	}
	vals["nas.seq_pass_ms"] = w.serialNs / 1e6
	vals["nas.loops_per_pass"] = w.loopsPerOp
	if w.tracedOps > 0 {
		var chunks int64
		used := 0
		for i := range w.chunks.perWorker {
			if n := w.chunks.perWorker[i].n.Load(); n > 0 {
				chunks += n
				used++
			}
		}
		vals["loop.chunks_per_op"] = float64(chunks) / float64(w.tracedOps)
		vals["loop.workers_per_op"] = float64(used)
	}
}

func (w *nasSuite) close() { w.closePool() }
