// Allocation pins and a parking stress test for the scheduler hot paths,
// plus the two microbenchmarks the repository benchmark (`go run
// ./benchmark`, see BENCHMARK.json) has no probe for: batched spawns past
// the deque's initial capacity, and fine-grained DynamicStealing loops.
// Performance is recorded by the repository benchmark only; these
// benchmarks are for local `go test -bench` investigation.
//
// The suite lives in the external test package so it can drive the loop
// strategies (internal/loop imports sched) exactly as the public API does.
package sched_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hybridloop/internal/loop"
	"hybridloop/internal/sched"
)

func noop(w *sched.Worker) {}

// BenchmarkSpawnBatch amortizes the join: spawn 256 tasks, then wait. The
// deque grows past its initial capacity, so ring growth is in the loop.
func BenchmarkSpawnBatch(b *testing.B) {
	pool := sched.NewPool(1, 1)
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	pool.Run(func(w *sched.Worker) {
		var g sched.Group
		for i := 0; i < b.N; i += 256 {
			for j := 0; j < 256; j++ {
				w.Spawn(&g, noop)
			}
			w.Wait(&g)
		}
	})
}

// TestSpawnAllocFree pins the allocation count of the steady-state spawn
// path at zero: Spawn must not heap-allocate per task (acceptance
// criterion for the allocation-free spawn path).
func TestSpawnAllocFree(t *testing.T) {
	pool := sched.NewPool(1, 1)
	defer pool.Close()
	pool.Run(func(w *sched.Worker) {
		var g sched.Group
		allocs := testing.AllocsPerRun(1000, func() {
			w.Spawn(&g, noop)
			w.Wait(&g)
		})
		if allocs != 0 {
			t.Errorf("Spawn+Wait allocates %.1f objects per spawn, want 0", allocs)
		}
	})
}

// TestRunAllocFree pins the allocation count of an external Run at zero,
// on both of its paths: the borrow/hand-back round trip a sole caller
// takes on an idle pool, and the submission round trip — the full
// park/wake/execute/re-park cycle — a thread-locked pool takes. The
// root-call scratch is pooled and both handshakes are one atomic word, so
// steady-state submission must not touch the heap. (AllocsPerRun reports
// the rounded-down average, so the occasional sync.Pool refill after a GC
// does not flake the zero.)
func TestRunAllocFree(t *testing.T) {
	p := runtime.NumCPU()
	if p < 4 {
		p = 4
	}
	for _, c := range []struct {
		name string
		pool *sched.Pool
	}{{"borrow", sched.NewPool(p, 1)}, {"submit", sched.NewPoolLocked(p, 1)}} {
		allocs := testing.AllocsPerRun(1000, func() {
			c.pool.Run(func(w *sched.Worker) {})
		})
		c.pool.Close()
		if allocs != 0 {
			t.Errorf("Run (%s path) allocates %.1f objects per op, want 0", c.name, allocs)
		}
	}
}

// TestForAllocs pins the allocations of one fine-grained Hybrid loop.For
// on an idle pool at 11: the root closure and its one copy of the options,
// the body adapter, the cancel token, the partition set (3), the loop
// descriptor, the range slots and their eager-fallback task, and one
// registry snapshot — the loop's registry entry is embedded in its
// descriptor, and unregistering the last loop publishes nil. The public
// Pool.For adds one more, its own options. Lower is welcome (update the
// pin); higher is a regression.
func TestForAllocs(t *testing.T) {
	pool := sched.NewPool(2, 1)
	defer pool.Close()
	x := make([]float64, 1<<14)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i]++
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		loop.For(pool, 0, len(x), body, loop.Options{Strategy: loop.Hybrid, Chunk: 64})
	})
	if allocs > 11 {
		t.Errorf("loop.For allocates %.0f objects per call, want at most 11", allocs)
	}
}

// TestParkUnparkStress hammers the single-word parking protocol: many
// submitters race Runs against workers cycling through
// active→parking→parked→notified, with inner spawns so wake chaining and
// the Group futex wait see concurrent traffic too. Run under -race by
// `make stress`; the assertion is that no submission is lost and no join
// hangs (a lost wakeup deadlocks the test).
func TestParkUnparkStress(t *testing.T) {
	p := runtime.NumCPU()
	if p < 4 {
		p = 4
	}
	pool := sched.NewPool(p, 7)
	defer pool.Close()
	const submitters, rounds, fanout = 8, 500, 4
	var done atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pool.Run(func(w *sched.Worker) {
					var g sched.Group
					for j := 0; j < fanout; j++ {
						w.Spawn(&g, func(cw *sched.Worker) { done.Add(1) })
					}
					w.Wait(&g)
					done.Add(1)
				})
			}
		}()
	}
	wg.Wait()
	if want := int64(submitters * rounds * (fanout + 1)); done.Load() != want {
		t.Fatalf("executed %d tasks, want %d", done.Load(), want)
	}
}

// BenchmarkForFineStealing measures a whole fine-grained DynamicStealing
// loop with an empty body: pure spawn+join scheduling overhead per loop at
// P = NumCPU. The chunk sizes bracket the paper's fine-grained regime
// (chunk <= 64) where scheduling constants dominate. The repository
// benchmark measures the Hybrid strategy's per-loop and per-chunk costs;
// no probe there runs DynamicStealing.
func BenchmarkForFineStealing(b *testing.B) {
	pool := sched.NewPool(runtime.NumCPU(), 1)
	defer pool.Close()
	const n = 1 << 15
	body := func(lo, hi int) {}
	for _, chunk := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loop.For(pool, 0, n, body, loop.Options{Strategy: loop.DynamicStealing, Chunk: chunk})
			}
		})
	}
}
