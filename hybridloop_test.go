package hybridloop_test

import (
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
