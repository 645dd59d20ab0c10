package hybridloop_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	hybridloop "hybridloop"
	"hybridloop/internal/sched"
)

var errBody = errors.New("body failed")

var errStrategies = []hybridloop.Strategy{
	hybridloop.Hybrid, hybridloop.DynamicStealing, hybridloop.Static,
	hybridloop.DynamicSharing, hybridloop.Guided,
}

// TestForErrNoError: the error-free path behaves exactly like For —
// every iteration exactly once, nil returned — for every strategy.
func TestForErrNoError(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	const n = 1 << 14
	for _, s := range errStrategies {
		counts := make([]atomic.Int32, n)
		err := p.ForErr(0, n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
			return nil
		}, hybridloop.WithStrategy(s), hybridloop.WithChunk(32))
		if err != nil {
			t.Fatalf("%v: ForErr = %v on the error-free path", s, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("%v: iteration %d executed %d times", s, i, c)
			}
		}
	}
}

// TestForErrFirstErrorWins: a failing chunk cancels the loop and its
// error is returned; no iteration runs more than once; the pool stays
// usable.
func TestForErrFirstErrorWins(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	const n = 1 << 15
	for _, s := range errStrategies {
		counts := make([]atomic.Int32, n)
		err := p.ForErr(0, n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
			if lo <= n/4 && n/4 < hi {
				return errBody
			}
			return nil
		}, hybridloop.WithStrategy(s), hybridloop.WithChunk(16))
		if !errors.Is(err, errBody) {
			t.Fatalf("%v: ForErr = %v, want errBody", s, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c > 1 {
				t.Fatalf("%v: iteration %d executed %d times", s, i, c)
			}
		}
		// Follow-up loop must be untouched by the cancellation.
		var ran atomic.Int64
		if err := p.ForErr(0, 1000, func(lo, hi int) error {
			ran.Add(int64(hi - lo))
			return nil
		}, hybridloop.WithStrategy(s)); err != nil || ran.Load() != 1000 {
			t.Fatalf("%v: pool degraded after error (err=%v, ran=%d)", s, err, ran.Load())
		}
	}
}

// TestForErrDistinctErrors: when several workers fail concurrently,
// exactly one of their errors is returned (first to trip the token).
func TestForErrDistinctErrors(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	errA, errB := errors.New("a"), errors.New("b")
	err := p.ForErr(0, 1<<14, func(lo, hi int) error {
		if lo < 1<<13 {
			return errA
		}
		return errB
	}, hybridloop.WithChunk(16))
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("ForErr = %v, want one of the injected errors", err)
	}
}

// TestForErrAuto: the error path composes with the autotuner — a
// cancelled invocation is discarded, not learned from, and subsequent
// tuned invocations still work.
func TestForErrAuto(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	for round := 0; round < 30; round++ {
		fail := round%5 == 0
		err := p.ForErr(0, 4096, func(lo, hi int) error {
			if fail && lo == 0 {
				return errBody
			}
			return nil
		}, hybridloop.WithAuto())
		if fail && !errors.Is(err, errBody) {
			t.Fatalf("round %d: err = %v, want errBody", round, err)
		}
		if !fail && err != nil {
			t.Fatalf("round %d: err = %v on clean round", round, err)
		}
	}
	sites := p.TunerSites()
	if len(sites) != 1 {
		t.Fatalf("expected one tuned site, got %d", len(sites))
	}
	if sites[0].Discards == 0 {
		t.Fatal("erroring rounds were not discarded by the tuner")
	}
}

// TestForEachErrStopsMidChunk: the erroring worker stops at the failing
// index — later indexes of the same chunk never run.
func TestForEachErrStopsMidChunk(t *testing.T) {
	p := hybridloop.NewPool(1) // single worker: deterministic chunk order
	defer p.Close()
	const n, failAt = 1 << 10, 100
	counts := make([]atomic.Int32, n)
	err := p.ForEachErr(0, n, func(i int) error {
		counts[i].Add(1)
		if i == failAt {
			return errBody
		}
		return nil
	}, hybridloop.WithChunk(64), hybridloop.WithStrategy(hybridloop.DynamicSharing))
	if !errors.Is(err, errBody) {
		t.Fatalf("ForEachErr = %v, want errBody", err)
	}
	if counts[failAt].Load() != 1 {
		t.Fatal("failing index did not run")
	}
	if counts[failAt+1].Load() != 0 {
		t.Fatal("index after the failure ran in the same chunk")
	}
}

// TestForCtxCompletes: an uncancelled context behaves like For.
func TestForCtxCompletes(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.ForCtx(ctx, 0, 10000, func(lo, hi int) {
		ran.Add(int64(hi - lo))
	}); err != nil {
		t.Fatalf("ForCtx = %v on live context", err)
	}
	if ran.Load() != 10000 {
		t.Fatalf("ran %d of 10000 iterations", ran.Load())
	}
}

// TestForCtxBackgroundFastPath: a never-cancellable context takes the
// plain For path and returns nil.
func TestForCtxBackgroundFastPath(t *testing.T) {
	p := hybridloop.NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	if err := p.ForCtx(context.Background(), 0, 1000, func(lo, hi int) {
		ran.Add(int64(hi - lo))
	}); err != nil || ran.Load() != 1000 {
		t.Fatalf("ForCtx(Background) err=%v ran=%d", err, ran.Load())
	}
}

// TestForCtxPreCancelled: an already-expired context runs nothing and
// returns its error.
func TestForCtxPreCancelled(t *testing.T) {
	p := hybridloop.NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := p.ForCtx(ctx, 0, 10000, func(lo, hi int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d chunks ran under a pre-cancelled context", ran.Load())
	}
}

// TestForCtxCancelMidLoop: cancelling the context mid-loop stops the
// workers early and returns context.Canceled.
func TestForCtxCancelMidLoop(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1 << 20
	var ran atomic.Int64
	err := p.ForCtx(ctx, 0, n, func(lo, hi int) {
		if ran.Add(int64(hi-lo)) >= 1<<12 {
			cancel()
			// Keep post-cancel chunks slow so the AfterFunc goroutine
			// trips the token while the loop is still running; an empty
			// body could otherwise finish all 1M iterations first.
			time.Sleep(100 * time.Microsecond)
		}
	}, hybridloop.WithChunk(64))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForCtx = %v, want context.Canceled", err)
	}
	if ran.Load() >= n/2 {
		t.Fatalf("%d of %d iterations ran after an early cancel", ran.Load(), n)
	}
}

// TestForCtxDeadline: a deadline expiring mid-loop surfaces as
// DeadlineExceeded with the tail of the iteration space abandoned.
func TestForCtxDeadline(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var ran atomic.Int64
	err := p.ForCtx(ctx, 0, 1<<20, func(lo, hi int) {
		ran.Add(int64(hi - lo))
		time.Sleep(100 * time.Microsecond) // slow body so the deadline lands mid-loop
	}, hybridloop.WithChunk(64))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ForCtx = %v, want context.DeadlineExceeded", err)
	}
	if ran.Load() >= 1<<20 {
		t.Fatal("every iteration ran despite the deadline")
	}
}

// recoverPanic runs fn and returns the recovered value.
func recoverPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// checkTaskPanic asserts r is a *sched.TaskPanicError carrying the
// injected payload and a captured body stack.
func checkTaskPanic(t *testing.T, what string, r any) {
	t.Helper()
	if r == nil {
		t.Fatalf("%s: panic did not propagate", what)
	}
	tpe, ok := r.(*sched.TaskPanicError)
	if !ok {
		t.Fatalf("%s: recovered %T, want *sched.TaskPanicError", what, r)
	}
	if !strings.Contains(tpe.Error(), "injected:"+what) {
		t.Fatalf("%s: panic value lost: %v", what, tpe.Value)
	}
	if len(tpe.Stack) == 0 || !strings.Contains(string(tpe.Stack), "cancel_test") {
		t.Fatalf("%s: TaskPanicError does not carry the body stack", what)
	}
}

// TestPanicPropagationWrappers is the satellite-3 coverage: a body panic
// inside Reduce, Sum, and For2D surfaces to the caller as a
// *sched.TaskPanicError carrying the body's stack, only one panic wins,
// and the pool remains fully usable afterwards. Run with -race.
func TestPanicPropagationWrappers(t *testing.T) {
	p := hybridloop.NewPool(4)
	defer p.Close()

	checkTaskPanic(t, "reduce", recoverPanic(func() {
		hybridloop.Reduce(p, 0, 1<<14, 64, 0,
			func(lo, hi int) int { panic("injected:reduce") },
			func(a, b int) int { return a + b })
	}))
	checkTaskPanic(t, "sum", recoverPanic(func() {
		hybridloop.Sum(p, 0, 1<<14, func(i int) float64 {
			if i == 7777 {
				panic("injected:sum")
			}
			return 1
		})
	}))
	checkTaskPanic(t, "for2d", recoverPanic(func() {
		p.For2D(0, 256, 0, 256, 16, 16, func(rlo, rhi, clo, chi int) {
			if rlo >= 128 {
				panic("injected:for2d")
			}
		})
	}))

	// After three panics the pool must still schedule perfectly: an
	// exact reduction and an exact 2-D sweep.
	got := hybridloop.Sum(p, 0, 100000, func(i int) float64 { return 1 })
	if got != 100000 {
		t.Fatalf("post-panic Sum = %v, want 100000", got)
	}
	var cells atomic.Int64
	p.For2D(0, 100, 0, 100, 8, 8, func(rlo, rhi, clo, chi int) {
		cells.Add(int64((rhi - rlo) * (chi - clo)))
	})
	if cells.Load() != 100*100 {
		t.Fatalf("post-panic For2D covered %d cells, want 10000", cells.Load())
	}
}

// BenchmarkForErrFine measures the never-erroring ForErr path at the
// acceptance benchmark's shape (64k iterations, chunk 64): the cost of
// cancellation support on a loop that never cancels — one token
// allocation per loop and one atomic load per chunk.
func BenchmarkForErrFine(b *testing.B) {
	p := hybridloop.NewPool(0)
	defer p.Close()
	body := func(lo, hi int) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ForErr(0, 1<<16, body, hybridloop.WithChunk(64)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBorrowCancelEdge: on an idle pool a sole caller's ForErr and ForCtx
// run on the caller's goroutine under a borrowed worker identity, so their
// cancel edge (WakeAll) fires while that identity is lent. ForErr's error
// must come back, no iteration may run twice, no call may hang, and the
// pool must stay usable. (The pause between calls lets the workers park,
// so the next call borrows.)
func TestBorrowCancelEdge(t *testing.T) {
	p := hybridloop.NewPool(2)
	defer p.Close()
	const n = 1 << 15
	for _, s := range errStrategies {
		for round := 0; round < 10; round++ {
			counts := make([]atomic.Int32, n)
			body := func(lo, hi int) bool {
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
				return lo <= n/2 && n/2 < hi
			}
			time.Sleep(200 * time.Microsecond)
			err := p.ForErr(0, n, func(lo, hi int) error {
				if body(lo, hi) {
					return errBody
				}
				return nil
			}, hybridloop.WithStrategy(s), hybridloop.WithChunk(64))
			if !errors.Is(err, errBody) {
				t.Fatalf("%v: ForErr = %v, want %v", s, err, errBody)
			}
			time.Sleep(200 * time.Microsecond)
			ctx, cancel := context.WithCancel(context.Background())
			err = p.ForCtx(ctx, 0, n, func(lo, hi int) {
				if body(lo, hi) {
					cancel()
					// The cancel edge runs on the context's AfterFunc
					// goroutine; give it a P while the loop is live.
					time.Sleep(time.Millisecond)
				}
			}, hybridloop.WithStrategy(s), hybridloop.WithChunk(64))
			cancel()
			// The context's edge is asynchronous: a loop whose last chunk
			// finished first may return nil (ForErr's edge is synchronous).
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: ForCtx = %v, want nil or %v", s, err, context.Canceled)
			}
			for i := range counts {
				if c := counts[i].Load(); c > 2 {
					t.Fatalf("%v: iteration %d ran %d times over two loops", s, i, c)
				}
			}
		}
	}
	var sum atomic.Int64
	p.For(0, n, func(lo, hi int) { sum.Add(int64(hi - lo)) })
	if sum.Load() != n {
		t.Fatalf("pool unusable after the cancel edges: %d of %d iterations", sum.Load(), n)
	}
}
