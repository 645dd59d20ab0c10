package loop

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridloop/internal/sched"
)

// gateFirstChunk returns a BodyW wrapper that makes the chunk containing
// iteration 0 spin — repeatedly waking parked workers — until the pool's
// RangeSteals counter moves past its value at loop start (or a deadline
// passes, so a broken steal path fails the assertion instead of hanging
// the suite). This pins the owner mid-range with its descriptor
// published, forcing the steal-half race even on a single-CPU machine
// where an ungated owner would drain its whole range before any thief is
// scheduled.
func gateFirstChunk(pool *sched.Pool, inner BodyW) BodyW {
	before := pool.Stats().RangeSteals
	return func(w *sched.Worker, lo, hi int) {
		if lo == 0 {
			deadline := time.Now().Add(5 * time.Second)
			for pool.Stats().RangeSteals == before && time.Now().Before(deadline) {
				w.Pool().Notify() // recruit a parked worker to come steal
				runtime.Gosched()
			}
		}
		inner(w, lo, hi)
	}
}

// TestStealHalfOversubscribed hammers the steal-half protocol with a pool
// far wider than the machine: 16 workers multiplexed over however many
// cores the test runner has, several concurrent loops, fine chunks, and
// the first chunk of each loop gated until a range steal lands. Every
// iteration must execute exactly once and Stats.RangeSteals must
// actually move — the point of the test is to drive the owner TakeFront
// / thief StealHalf race; run with -race for the full effect. Both
// lazily split strategies are exercised.
func TestStealHalfOversubscribed(t *testing.T) {
	const p = 16
	pool := sched.NewPool(p, 0xC0FFEE)
	defer pool.Close()
	pool.ResetStats()

	const loops, n, rounds = 4, 1 << 14, 3
	for _, s := range []Strategy{DynamicStealing, Hybrid} {
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			fail := make(chan string, loops)
			for l := 0; l < loops; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					counts := make([]atomic.Int32, n)
					ForW(pool, 0, n, gateFirstChunk(pool, func(w *sched.Worker, lo, hi int) {
						for i := lo; i < hi; i++ {
							counts[i].Add(1)
						}
					}), Options{Strategy: s, Chunk: 8})
					for i := range counts {
						if c := counts[i].Load(); c != 1 {
							fail <- s.String()
							return
						}
					}
				}(l)
			}
			wg.Wait()
			close(fail)
			for bad := range fail {
				t.Fatalf("%s round %d: iterations lost or duplicated under oversubscription", bad, round)
			}
		}
	}
	if pool.Stats().RangeSteals == 0 {
		t.Fatal("oversubscribed stress drove zero range steals; the steal-half path was not exercised")
	}
}

// TestStealHalfNestedReentry drives the re-entrant fallback: a lazy outer
// loop whose body runs nested lazy loops, so a worker can reach runOwned
// while its own slot still holds the suspended outer range. The nested
// entry must detect the occupied slot, take the eager path, and cover
// everything exactly once.
func TestStealHalfNestedReentry(t *testing.T) {
	pool := sched.NewPool(4, 555)
	defer pool.Close()
	const outerN, innerN = 64, 2048
	var inner atomic.Int64
	outerCounts := make([]atomic.Int32, outerN)
	pool.Run(func(w *sched.Worker) {
		WorkerForW(w, 0, outerN, func(cw *sched.Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				outerCounts[i].Add(1)
				WorkerFor(cw, 0, innerN, func(l2, h2 int) {
					inner.Add(int64(h2 - l2))
				}, Options{Strategy: DynamicStealing, Chunk: 16})
			}
		}, Options{Strategy: DynamicStealing, Chunk: 2})
	})
	for i := range outerCounts {
		if c := outerCounts[i].Load(); c != 1 {
			t.Fatalf("outer iteration %d ran %d times", i, c)
		}
	}
	if got := inner.Load(); got != outerN*innerN {
		t.Fatalf("inner iterations = %d, want %d", got, outerN*innerN)
	}
}

// TestOwnerWindowLeavesHalfStealable: while a lazy owner runs a window,
// its published slot still holds at least half, minus one chunk, of the
// iterations it had not yet taken when it took that window, so a thief
// arriving mid-window always finds the tail. The stride is forced to its
// maximum, as a light first chunk measures it. A one-worker pool has no
// thieves, so the slot changes only at the owner's takes: the first chunk
// of each window sees a new remainder and starts where the window does.
func TestOwnerWindowLeavesHalfStealable(t *testing.T) {
	const n, chunk = 4096, 8
	pool := sched.NewPool(1, 9)
	defer pool.Close()
	var g sched.Group
	var rs rangeSet
	opts := &Options{Chunk: chunk}
	opts.pollStride = maxPollStride
	prev, windows, covered := -1, 0, 0
	rs.init(pool.P(), &g, func(w *sched.Worker, lo, hi int) {
		covered += hi - lo
		left := rs.slots[w.ID()].Remaining()
		if left == prev {
			return
		}
		windows++
		prev = left
		if want := (n-lo)/2 - chunk; left < want {
			t.Errorf("window from %d: slot holds %d of the %d untaken, want at least %d", lo, left, n-lo, want)
		}
	}, opts, chunk)
	pool.Run(func(w *sched.Worker) {
		rs.runOwned(w, 0, n)
		w.Wait(&g)
	})
	if covered != n {
		t.Fatalf("owner covered %d iterations, want %d", covered, n)
	}
	// Seven windows of stride·chunk = 512, then 256, 128, …, 8, 8.
	if windows != 14 {
		t.Fatalf("owner took %d windows, want 14", windows)
	}
}

// TestStealHalfPanicUnwind: a body that panics mid-range while thieves
// are active must surface exactly one TaskPanicError at the initiating
// Wait, and the pool must stay usable — the unwind path Resets the
// published slot so the dead loop stops advertising work.
func TestStealHalfPanicUnwind(t *testing.T) {
	pool := sched.NewPool(8, 321)
	defer pool.Close()
	for _, s := range []Strategy{DynamicStealing, Hybrid} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%v: panic did not surface", s)
				}
				if _, ok := r.(*sched.TaskPanicError); !ok {
					t.Fatalf("%v: recovered %T, want *sched.TaskPanicError", s, r)
				}
			}()
			For(pool, 0, 1<<14, func(lo, hi int) {
				if lo >= 1<<12 {
					panic("boom")
				}
			}, Options{Strategy: s, Chunk: 8})
		}()
		// The pool must still run clean loops afterwards.
		var count atomic.Int64
		For(pool, 0, 10000, func(lo, hi int) {
			count.Add(int64(hi - lo))
		}, Options{Strategy: s, Chunk: 8})
		if count.Load() != 10000 {
			t.Fatalf("%v: pool broken after panic: %d/10000 iterations", s, count.Load())
		}
	}
}
