package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func withPool(t *testing.T, p int, fn func(pool *Pool)) {
	t.Helper()
	pool := NewPool(p, 12345)
	defer pool.Close()
	fn(pool)
}

func TestRunExecutes(t *testing.T) {
	withPool(t, 4, func(pool *Pool) {
		ran := false
		pool.Run(func(w *Worker) { ran = true })
		if !ran {
			t.Fatal("root task did not run")
		}
	})
}

func TestSpawnWaitCompletesAll(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		withPool(t, p, func(pool *Pool) {
			const n = 500
			var count atomic.Int64
			pool.Run(func(w *Worker) {
				var g Group
				for i := 0; i < n; i++ {
					w.Spawn(&g, func(cw *Worker) { count.Add(1) })
				}
				w.Wait(&g)
			})
			if count.Load() != n {
				t.Fatalf("P=%d: %d tasks ran, want %d", p, count.Load(), n)
			}
		})
	}
}

// fib computes Fibonacci with naive fork-join recursion — the classic
// work-stealing stress test exercising deep spawn trees and helping Waits.
func fib(w *Worker, n int) int {
	if n < 2 {
		return n
	}
	var g Group
	var a int
	w.Spawn(&g, func(cw *Worker) { a = fib(cw, n-1) })
	b := fib(w, n-2)
	w.Wait(&g)
	return a + b
}

func TestForkJoinFib(t *testing.T) {
	want := map[int]int{10: 55, 15: 610, 20: 6765}
	for _, p := range []int{1, 2, 4, 7} {
		withPool(t, p, func(pool *Pool) {
			for n, expect := range want {
				var got int
				pool.Run(func(w *Worker) { got = fib(w, n) })
				if got != expect {
					t.Fatalf("P=%d: fib(%d) = %d, want %d", p, n, got, expect)
				}
			}
		})
	}
}

func TestNestedGroups(t *testing.T) {
	withPool(t, 4, func(pool *Pool) {
		var total atomic.Int64
		pool.Run(func(w *Worker) {
			var outer Group
			for i := 0; i < 10; i++ {
				w.Spawn(&outer, func(cw *Worker) {
					var inner Group
					for j := 0; j < 10; j++ {
						cw.Spawn(&inner, func(iw *Worker) { total.Add(1) })
					}
					cw.Wait(&inner)
				})
			}
			w.Wait(&outer)
		})
		if total.Load() != 100 {
			t.Fatalf("total = %d, want 100", total.Load())
		}
	})
}

func TestSequentialRunsReusePool(t *testing.T) {
	withPool(t, 3, func(pool *Pool) {
		for round := 0; round < 20; round++ {
			var count atomic.Int64
			pool.Run(func(w *Worker) {
				var g Group
				for i := 0; i < 50; i++ {
					w.Spawn(&g, func(cw *Worker) { count.Add(1) })
				}
				w.Wait(&g)
			})
			if count.Load() != 50 {
				t.Fatalf("round %d: count = %d", round, count.Load())
			}
		}
	})
}

func TestStatsCount(t *testing.T) {
	withPool(t, 2, func(pool *Pool) {
		pool.ResetStats()
		pool.Run(func(w *Worker) {
			var g Group
			for i := 0; i < 100; i++ {
				w.Spawn(&g, func(cw *Worker) {})
			}
			w.Wait(&g)
		})
		s := pool.Stats()
		// 100 spawned tasks + 1 injected root.
		if s.Tasks != 101 {
			t.Fatalf("Tasks = %d, want 101", s.Tasks)
		}
	})
}

func TestWorkerIDsDistinct(t *testing.T) {
	withPool(t, 6, func(pool *Pool) {
		if pool.P() != 6 {
			t.Fatalf("P() = %d", pool.P())
		}
		seen := map[int]bool{}
		for i := 0; i < 6; i++ {
			id := pool.Worker(i).ID()
			if seen[id] {
				t.Fatalf("duplicate worker id %d", id)
			}
			seen[id] = true
			if pool.Worker(i).Pool() != pool {
				t.Fatal("worker Pool() mismatch")
			}
		}
	})
}

func TestGroupDonePanicsBelowZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Done below zero did not panic")
		}
	}()
	var g Group
	g.Done()
}

func TestCloseIdempotent(t *testing.T) {
	pool := NewPool(2, 1)
	pool.Close()
	pool.Close() // must not panic or hang
}

// fakeLoop implements HybridLoop to verify the steal-protocol plumbing:
// idle workers must probe registered loops and report entries.
type fakeLoop struct {
	LoopEntry
	live    atomic.Bool
	entries atomic.Int64
}

func (f *fakeLoop) Live() bool { return f.live.Load() }
func (f *fakeLoop) TrySteal(w *Worker) bool {
	if !f.live.Load() {
		return false
	}
	f.live.Store(false)
	f.entries.Add(1)
	w.NoteLoopEntry()
	return true
}

func TestStealProtocolProbesRegisteredLoops(t *testing.T) {
	withPool(t, 4, func(pool *Pool) {
		f := &fakeLoop{}
		f.live.Store(true)
		pool.RegisterLoopWeighted(f, 1)
		defer pool.UnregisterLoop(f)
		// Give idle workers the chance to probe: wake them all with pinned
		// no-ops (an empty Run wakes no one when it borrows) and wait for
		// the entry to be recorded.
		deadline := 0
		for f.entries.Load() == 0 && deadline < 1000 {
			pokeAll(pool)
			deadline++
		}
		if f.entries.Load() == 0 {
			t.Fatal("no worker entered the registered loop via the steal protocol")
		}
		if got := pool.Stats().LoopEntries; got == 0 {
			t.Fatal("LoopEntries stat not incremented")
		}
	})
}

func TestUnregisterLoopStopsProbing(t *testing.T) {
	withPool(t, 2, func(pool *Pool) {
		f := &fakeLoop{}
		f.live.Store(true)
		pool.RegisterLoopWeighted(f, 1)
		pool.UnregisterLoop(f)
		// Each poke drives every other worker through a full sweep, the
		// registry probe included.
		for i := 0; i < 50; i++ {
			pokeAll(pool)
		}
		if f.entries.Load() != 0 {
			t.Fatal("unregistered loop was probed")
		}
	})
}

func BenchmarkSpawnWait(b *testing.B) {
	pool := NewPool(4, 1)
	defer pool.Close()
	b.ResetTimer()
	pool.Run(func(w *Worker) {
		for i := 0; i < b.N; i++ {
			var g Group
			w.Spawn(&g, func(cw *Worker) {})
			w.Wait(&g)
		}
	})
}

func BenchmarkFib20(b *testing.B) {
	pool := NewPool(4, 1)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Run(func(w *Worker) { fib(w, 20) })
	}
}

func TestPanicPropagatesFromSpawnedTask(t *testing.T) {
	withPool(t, 4, func(pool *Pool) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			tpe, ok := r.(*TaskPanicError)
			if !ok {
				t.Fatalf("recovered %T, want *TaskPanicError", r)
			}
			if tpe.Value != "boom" {
				t.Fatalf("panic value %v, want boom", tpe.Value)
			}
			if len(tpe.Stack) == 0 || tpe.Error() == "" {
				t.Fatal("panic missing stack/message")
			}
		}()
		pool.Run(func(w *Worker) {
			var g Group
			for i := 0; i < 16; i++ {
				i := i
				w.Spawn(&g, func(cw *Worker) {
					if i == 7 {
						panic("boom")
					}
				})
			}
			w.Wait(&g)
		})
	})
}

func TestPanicPropagatesFromRoot(t *testing.T) {
	withPool(t, 2, func(pool *Pool) {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("root panic did not propagate")
			}
		}()
		pool.Run(func(w *Worker) { panic("root boom") })
	})
}

func TestPoolUsableAfterPanic(t *testing.T) {
	withPool(t, 4, func(pool *Pool) {
		func() {
			defer func() { recover() }()
			pool.Run(func(w *Worker) {
				var g Group
				w.Spawn(&g, func(cw *Worker) { panic("transient") })
				w.Wait(&g)
			})
		}()
		// The pool must still schedule work correctly afterwards.
		var count atomic.Int64
		pool.Run(func(w *Worker) {
			var g Group
			for i := 0; i < 100; i++ {
				w.Spawn(&g, func(cw *Worker) { count.Add(1) })
			}
			w.Wait(&g)
		})
		if count.Load() != 100 {
			t.Fatalf("pool broken after panic: %d tasks ran", count.Load())
		}
	})
}

func TestPanicFromPinnedTask(t *testing.T) {
	withPool(t, 3, func(pool *Pool) {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("pinned-task panic did not propagate")
			}
		}()
		pool.Run(func(w *Worker) {
			var g Group
			pool.SpawnOn((w.ID()+1)%pool.P(), &g, func(cw *Worker) { panic("pinned boom") })
			w.Wait(&g)
		})
	})
}

func TestCloseStopsAllWorkerGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		pool := NewPool(8, uint64(i))
		pool.Run(func(w *Worker) {
			var g Group
			for j := 0; j < 100; j++ {
				w.Spawn(&g, func(cw *Worker) {})
			}
			w.Wait(&g)
		})
		pool.Close()
	}
	// Workers park on channels and exit on quit; give the scheduler a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
