package hybridloop_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"hybridloop"
	"hybridloop/internal/affinity"
)

func TestQuickstartShape(t *testing.T) {
	pool := hybridloop.NewPool(4)
	defer pool.Close()
	data := make([]float64, 10000)
	pool.For(0, len(data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = float64(i) * 2
		}
	})
	for i, v := range data {
		if v != float64(i)*2 {
			t.Fatalf("data[%d] = %v", i, v)
		}
	}
}

// TestForPanicIsTaskPanicError pins that callers outside the module can
// name the re-raised panic type: a panicking Pool.For body reaches the
// caller as a *hybridloop.TaskPanicError carrying the body's stack.
func TestForPanicIsTaskPanicError(t *testing.T) {
	pool := hybridloop.NewPool(4)
	defer pool.Close()
	defer func() {
		tpe, ok := recover().(*hybridloop.TaskPanicError)
		if !ok {
			t.Fatal("recovered value is not a *hybridloop.TaskPanicError")
		}
		if tpe.Value != "boom" {
			t.Fatalf("Value = %v, want boom", tpe.Value)
		}
		if len(tpe.Stack) == 0 {
			t.Fatal("TaskPanicError carries no stack")
		}
	}()
	pool.For(0, 1000, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
	t.Fatal("For returned normally from a panicking body")
}

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	pool := hybridloop.NewPool(0)
	defer pool.Close()
	if pool.Workers() < 1 {
		t.Fatalf("Workers() = %d", pool.Workers())
	}
}

func TestAllStrategiesViaPublicAPI(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(7))
	defer pool.Close()
	for _, s := range []hybridloop.Strategy{
		hybridloop.Hybrid, hybridloop.Static, hybridloop.DynamicStealing,
		hybridloop.DynamicSharing, hybridloop.Guided,
	} {
		var n atomic.Int64
		pool.For(0, 12345, func(lo, hi int) {
			n.Add(int64(hi - lo))
		}, hybridloop.WithStrategy(s), hybridloop.WithChunk(100))
		if n.Load() != 12345 {
			t.Fatalf("%v: covered %d iterations", s, n.Load())
		}
	}
}

func TestForEach(t *testing.T) {
	pool := hybridloop.NewPool(3)
	defer pool.Close()
	var sum atomic.Int64
	pool.ForEach(1, 101, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 5050 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestWithDefaultStrategyAndChunk(t *testing.T) {
	pool := hybridloop.NewPool(2,
		hybridloop.WithDefaultStrategy(hybridloop.Static),
		hybridloop.WithDefaultChunk(64))
	defer pool.Close()
	tr := affinity.NewTracker(1000)
	for i := 0; i < 3; i++ {
		pool.For(0, 1000, func(lo, hi int) {}, hybridloop.WithRecorder(tr))
		frac := tr.EndLoop()
		if i > 0 && frac != 1.0 {
			t.Fatalf("default static strategy not applied: affinity %v", frac)
		}
	}
}

// TestNestedForFromTask runs a loop from inside a task and a nested loop
// from each of its chunks. A chunk runs on whichever worker claimed or
// stole it, so the inner loop goes through the worker executing the
// chunk, never the task's captured one.
func TestNestedForFromTask(t *testing.T) {
	pool := hybridloop.NewPool(4)
	defer pool.Close()
	var total atomic.Int64
	pool.Run(func(w *hybridloop.Worker) {
		hybridloop.ForWorkerNested(w, 0, 10, func(cw *hybridloop.Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				hybridloop.For(cw, 0, 100, func(l2, h2 int) {
					total.Add(int64(h2 - l2))
				}, hybridloop.WithChunk(7))
			}
		})
	})
	if total.Load() != 1000 {
		t.Fatalf("nested total = %d", total.Load())
	}
}

func TestSpawnWaitPublicAPI(t *testing.T) {
	pool := hybridloop.NewPool(4)
	defer pool.Close()
	var count atomic.Int64
	pool.Run(func(w *hybridloop.Worker) {
		var g hybridloop.Group
		for i := 0; i < 64; i++ {
			w.Spawn(&g, func(cw *hybridloop.Worker) { count.Add(1) })
		}
		w.Wait(&g)
	})
	if count.Load() != 64 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestStatsExposed(t *testing.T) {
	pool := hybridloop.NewPool(2)
	defer pool.Close()
	pool.ResetStats()
	pool.For(0, 1000, func(lo, hi int) {}, hybridloop.WithChunk(10))
	if pool.Stats().Tasks == 0 {
		t.Fatal("no tasks recorded")
	}
}

func TestDefaultChunkRule(t *testing.T) {
	if hybridloop.DefaultChunk(1<<20, 4) != 2048 {
		t.Fatal("cap at 2048 missing")
	}
	if hybridloop.DefaultChunk(800, 10) != 10 {
		t.Fatalf("DefaultChunk(800,10) = %d", hybridloop.DefaultChunk(800, 10))
	}
}

func TestWithOSThreads(t *testing.T) {
	pool := hybridloop.NewPool(2, hybridloop.WithOSThreads(), hybridloop.WithSeed(3))
	defer pool.Close()
	var sum atomic.Int64
	pool.For(0, 10000, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	if sum.Load() != 10000*9999/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// allocProbeSink absorbs iteration work in the allocation tests; package
// scope so the probe bodies capture nothing and are themselves
// allocation-free.
var allocProbeSink atomic.Int64

// TestForEachAllocations pins down the ForEach fix: the per-index adapter
// is built once per loop in the worker-aware form the core consumes
// directly, so ForEach may cost at most one more allocation per loop than
// For (it used to rebuild a doubly wrapped closure chain on every
// chunk). P=1 keeps the scheduler deterministic enough for
// testing.AllocsPerRun.
func TestForEachAllocations(t *testing.T) {
	pool := hybridloop.NewPool(1, hybridloop.WithSeed(1))
	defer pool.Close()
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			allocProbeSink.Add(int64(i))
		}
	}
	each := func(i int) { allocProbeSink.Add(int64(i)) }
	pool.For(0, 4096, body)     // warm the pool's lazy state
	pool.ForEach(0, 4096, each) // and both entry paths
	allocsFor := testing.AllocsPerRun(50, func() { pool.For(0, 4096, body) })
	allocsEach := testing.AllocsPerRun(50, func() { pool.ForEach(0, 4096, each) })
	if allocsEach > allocsFor+1 {
		t.Fatalf("ForEach allocates %.1f per loop, For %.1f — more than one extra", allocsEach, allocsFor)
	}
}

// TestHeldFrameThiefLast: back-to-back skewed loops, free in the caller's
// partition and heavy in the other worker's, so a thief usually runs the
// last piece. The caller's join, spinning, returns while that thief is
// still leaving its probe, and UnregisterLoop finds the loop's frame held.
// The next loop's acquire must wait the probe out, or pass the held frame
// over for another one in the pool's free list, rather than build a fresh
// one (about a dozen allocations): the loops, TryFor on an ungated pool,
// which is For with its options in the frame, allocate nothing. A thief
// that the host deschedules inside its probe for longer than the wait
// costs one frame the first time, after which the two frames take turns,
// so the test takes the best of three runs of 2 000 loops and allows
// that one frame. TestHeldFrameBriefHoldIsReused (internal/loop) checks
// the wait itself deterministically.
func TestHeldFrameThiefLast(t *testing.T) {
	const warm, loops, n = 200, 2000, 1024
	pool := hybridloop.NewPool(2, hybridloop.WithSeed(1))
	defer pool.Close()
	body := func(lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			for k := n / 2; k < i; k++ {
				s += k
			}
		}
		allocProbeSink.Add(int64(s))
	}
	chunk := hybridloop.WithChunk(8)
	for i := 0; i < warm; i++ {
		_ = pool.TryFor(0, n, body, chunk)
	}
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > 0.005; attempt++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < loops; i++ {
			_ = pool.TryFor(0, n, body, chunk)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / loops
		t.Logf("%.4f allocations per loop", per)
		best = min(best, per)
	}
	if best > 0.005 {
		t.Fatalf("skewed loops allocate %.4f objects each, want at most 0.005: held frames are rebuilt", best)
	}
}

// TestLaunchAllocations pins the steady-state allocations of each public
// loop entry, with a loop of 256 chunks, at zero. Every loop, root or
// nested, runs on a recycled frame, and everything it used to allocate
// lives there: descriptor, partition set, range slots, a team strategy's
// group, counter, parts and member task, token, the options the
// ForOptions are applied to, the adapters over each body form, Sum's block
// sums and an observed Auto play's feedback. A nested loop runs inline on
// the worker of the task that starts it, here a Run's root bound once.
// Pool.For is the exception:
// it still builds its options on the heap, one allocation (see For). The
// registry reuses its snapshots, a metrics-on pool reads its series
// handles from a cache, and a gated call releases its slot through a
// plain deferred call.
//
// Each entry is measured on an idle two-worker pool and again on a gated,
// metrics-on pool while a priority-1 batch loop runs beside it, so a call
// takes the submit path and its frame is often held by a probe of the
// batch loop. A cut-short loop still boxes its error and takes a fresh
// token; generic Reduce allocates its partials and the closure over them.
// AllocsPerRun's integer average does not count a rare rebuilt frame or
// snapshot; TestFrameRecyclingConcurrent (internal/loop) bounds those.
// Lower is welcome (update the pin); higher is a regression.
func TestLaunchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	pool := hybridloop.NewPool(2, hybridloop.WithSeed(1))
	defer pool.Close()
	metered := hybridloop.NewPool(2, hybridloop.WithSeed(1),
		hybridloop.WithMetrics(hybridloop.NewMetricsRegistry()))
	defer metered.Close()
	served := hybridloop.NewPool(2, hybridloop.WithSeed(1),
		hybridloop.WithMetrics(hybridloop.NewMetricsRegistry()), hybridloop.WithMaxInFlightLoops(6))
	defer served.Close()
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			allocProbeSink.Add(int64(i))
		}
	}
	each := func(i int) { allocProbeSink.Add(int64(i)) }
	eachErr := func(i int) error { each(i); return nil }
	item := func(i int) float64 { return float64(i & 7) }
	errBody := func(lo, hi int) error { body(lo, hi); return nil }
	errStop := errors.New("stop")
	failing := func(lo, hi int) error { body(lo, hi); return errStop }
	chunk := hybridloop.WithChunk(64)
	prio := hybridloop.WithPriority(8)
	auto := hybridloop.WithAuto()
	static := hybridloop.WithStrategy(hybridloop.Static)
	sharing := hybridloop.WithStrategy(hybridloop.DynamicSharing)
	guided := hybridloop.WithStrategy(hybridloop.Guided)
	bodyW := func(_ *hybridloop.Worker, lo, hi int) { body(lo, hi) }
	nestedFor := func(opts ...hybridloop.ForOption) func() {
		root := func(w *hybridloop.Worker) { hybridloop.For(w, 0, 1<<14, body, opts...) }
		return func() { pool.Run(root) }
	}
	nestedForWorker := func(opts ...hybridloop.ForOption) func() {
		root := func(w *hybridloop.Worker) { hybridloop.ForWorkerNested(w, 0, 1<<14, bodyW, opts...) }
		return func() { pool.Run(root) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sumAuto := func() { _ = hybridloop.Sum(served, 0, 1<<14, item, prio, auto) }
	for tries := 0; !committed(served) && tries < 500; tries++ {
		sumAuto()
	}
	if !committed(served) {
		t.Fatalf("the Auto Sum site did not commit: %+v", served.TunerSites())
	}

	// The batch tenant: back-to-back priority-1 loops on the served pool,
	// started before the first row that runs beside it.
	stop, batchDone := make(chan struct{}), make(chan struct{})
	batching := false
	defer func() {
		if batching {
			close(stop)
			<-batchDone
		}
	}()
	for _, c := range []struct {
		name  string
		want  float64
		batch bool // run beside the served pool's batch loop
		call  func()
	}{
		{"For", 1, false, func() { pool.For(0, 1<<14, body, chunk) }},
		{"ForEach", 0, false, func() { pool.ForEach(0, 1<<14, each, chunk) }},
		{"TryFor", 0, false, func() { _ = pool.TryFor(0, 1<<14, body, chunk) }},
		{"ForErr", 0, false, func() { _ = pool.ForErr(0, 1<<14, errBody, chunk) }},
		{"ForEachErr", 0, false, func() { _ = pool.ForEachErr(0, 1<<14, eachErr, chunk) }},
		{"ForCtx", 0, false, func() { _ = pool.ForCtx(ctx, 0, 1<<14, body, chunk) }},
		{"Sum", 0, false, func() { _ = hybridloop.Sum(pool, 0, 1<<14, item) }},
		{"Static ForEach", 0, false, func() { pool.ForEach(0, 1<<14, each, static) }},
		{"DynamicSharing ForEach", 0, false, func() { pool.ForEach(0, 1<<14, each, sharing, chunk) }},
		{"Guided ForEach", 0, false, func() { pool.ForEach(0, 1<<14, each, guided, chunk) }},
		{"nested For", 0, false, nestedFor(chunk)},
		{"nested ForWorkerNested", 0, false, nestedForWorker(chunk)},
		{"nested Guided For", 0, false, nestedFor(guided, chunk)},
		{"nested Guided ForWorkerNested", 0, false, nestedForWorker(guided, chunk)},
		{"For with metrics", 1, false, func() { metered.For(0, 1<<14, body, chunk) }},
		// A cut-short loop boxes its error and recycles its frame with a
		// fresh token.
		{"ForErr that fails", 2, false, func() { _ = pool.ForErr(0, 1<<14, failing, chunk) }},
		// Generic Reduce: its partials and the closure over them.
		{"Reduce", 2, false, func() {
			_ = hybridloop.Reduce(pool, 0, 1<<14, 0, 0, func(lo, hi int) int { return hi - lo },
				func(a, b int) int { return a + b })
		}},
		{"gated For", 1, false, func() { served.For(0, 1<<14, body, prio, chunk) }},
		{"gated For beside a batch loop", 1, true, func() { served.For(0, 1<<14, body, prio, chunk) }},
		{"gated ForEach beside a batch loop", 0, true, func() { served.ForEach(0, 1<<14, each, prio, chunk) }},
		{"gated TryFor beside a batch loop", 0, true, func() { _ = served.TryFor(0, 1<<14, body, prio, chunk) }},
		{"gated ForErr beside a batch loop", 0, true, func() { _ = served.ForErr(0, 1<<14, errBody, prio, chunk) }},
		{"gated ForEachErr beside a batch loop", 0, true, func() { _ = served.ForEachErr(0, 1<<14, eachErr, prio, chunk) }},
		{"gated ForCtx beside a batch loop", 0, true, func() { _ = served.ForCtx(ctx, 0, 1<<14, body, prio, chunk) }},
		{"gated committed Auto Sum beside a batch loop", 0, true, sumAuto},
	} {
		if c.batch && !batching {
			batching = true
			go func() {
				defer close(batchDone)
				for {
					select {
					case <-stop:
						return
					default:
						served.For(0, 1<<16, body, hybridloop.WithPriority(1))
					}
				}
			}()
		}
		got := testing.AllocsPerRun(1000, c.call)
		t.Logf("%s: %.1f allocations per call", c.name, got)
		if got > c.want {
			t.Errorf("%s allocates %.0f objects per call, want at most %.0f", c.name, got, c.want)
		}
	}
}

// committed reports whether every Auto site of pool has committed.
func committed(pool *hybridloop.Pool) bool {
	sites := pool.TunerSites()
	for _, s := range sites {
		if s.State != "committed" {
			return false
		}
	}
	return len(sites) > 0
}
