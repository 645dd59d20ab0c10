package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Race/stress tests for the borrow protocol (Pool.borrow, Pool.runLent,
// Pool.handBack): a sole Run on an idle pool runs its root on the calling
// goroutine under a parked worker's identity. Listed in STRESS_PATTERN.

// waitIdle waits until every worker of p is parked in mainLoop, so the
// next sole Run borrows deterministically.
func waitIdle(t *testing.T, p *Pool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range p.workers {
		for w.state.Load() != wParked {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked (state %d)", w.id, w.state.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// waitOrFail fails the test if done is not closed within the deadline —
// a lost wakeup would otherwise hang the test binary.
func waitOrFail(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: hung", what)
	}
}

// TestBorrowPinnedTaskOnLentIdentity: a second caller's Static-strategy
// team (the initiator runs its own partition and pins the others with
// SpawnOn, as loop.Static does) pins a task to an identity that is lent.
// The task must run — by the real worker, woken at hand-back, or by the
// borrower itself when it joins — and neither Run may hang.
func TestBorrowPinnedTaskOnLentIdentity(t *testing.T) {
	for _, borrowerJoins := range []bool{false, true} {
		p := NewPool(2, 1)
		waitIdle(t, p)
		pinned := make(chan struct{})
		bDone := make(chan struct{})
		var ranOn atomic.Int64
		ranOn.Store(-1)
		lent := -1
		p.Run(func(w *Worker) {
			if w.guest == nil {
				t.Error("a sole Run on an idle pool did not borrow")
			}
			lent = w.ID()
			go func() {
				defer close(bDone)
				p.Run(func(bw *Worker) {
					var g Group
					for i := 0; i < p.P(); i++ {
						if i != bw.ID() {
							p.SpawnOn(i, &g, func(cw *Worker) { ranOn.Store(int64(cw.ID())) })
						}
					}
					close(pinned)
					bw.Wait(&g)
				})
			}()
			<-pinned // the second caller's task now sits on this identity
			if borrowerJoins {
				// The borrower's own join sweeps the lent identity's
				// pinned queue before anything else.
				var g Group
				w.Spawn(&g, func(*Worker) {})
				w.Wait(&g)
			}
		})
		waitOrFail(t, bDone, "second caller's Static team")
		if got := ranOn.Load(); got != int64(lent) {
			t.Errorf("borrowerJoins=%v: pinned task ran on worker %d, want the lent identity %d", borrowerJoins, got, lent)
		}
		p.Close()
	}
}

// TestBorrowWakeAllWhileLent: the ForErr/ForCtx cancel edge (WakeAll)
// fires while an identity is lent — once while the borrower runs (a no-op
// for the lent identity) and repeatedly while the borrower is parked in
// its join (a spurious wake on the borrower's own channel). The join must
// still complete, and the identity must come back parked.
func TestBorrowWakeAllWhileLent(t *testing.T) {
	p := NewPool(2, 1)
	defer p.Close()
	waitIdle(t, p)
	var g Group
	g.Add(1)
	started := make(chan *Worker, 1)
	finisher := make(chan struct{})
	go func() {
		defer close(finisher)
		w := <-started
		for k := 0; k < 3; k++ {
			for w.state.Load() != wWaitParked {
				runtime.Gosched()
			}
			p.WakeAll()
		}
		g.Done()
	}()
	var lent *Worker
	p.Run(func(w *Worker) {
		lent = w
		p.WakeAll()
		started <- w
		w.Wait(&g)
	})
	waitOrFail(t, finisher, "finisher")
	if s := lent.state.Load(); s != wParked {
		t.Errorf("lent identity handed back in state %d, want parked (%d)", s, wParked)
	}
	p.Run(func(w *Worker) {
		if w.guest == nil {
			t.Error("the next sole Run did not borrow")
		}
	})
}

// TestBorrowPanicReturnsIdentity: a panic on the borrowing goroutine — in
// the root itself or in a task its join re-raises — surfaces as today's
// *TaskPanicError, and the identity comes back: the next Run borrows it
// again.
func TestBorrowPanicReturnsIdentity(t *testing.T) {
	p := NewPool(2, 1)
	defer p.Close()
	waitIdle(t, p)
	var lent *Worker
	roots := []func(w *Worker){
		func(w *Worker) { lent = w; panic("boom") },
		func(w *Worker) {
			var g Group
			w.Spawn(&g, func(*Worker) { panic("boom") })
			w.Wait(&g)
		},
	}
	for i, root := range roots {
		func() {
			defer func() {
				tpe, ok := recover().(*TaskPanicError)
				if !ok || tpe.Value != "boom" {
					t.Errorf("root %d: recovered %v, want *TaskPanicError{boom}", i, tpe)
				}
			}()
			p.Run(root)
		}()
		if s := lent.state.Load(); s != wParked {
			t.Errorf("root %d: identity left in state %d after the panic, want parked", i, s)
		}
	}
	p.Run(func(w *Worker) {
		if w != lent || w.guest == nil {
			t.Errorf("the next Run ran on worker %d (borrowed %v), want the same identity %d borrowed", w.ID(), w.guest != nil, lent.ID())
		}
	})
}

// TestBorrowCloseNoLeak: 10⁵ borrowed Runs, then Close — every worker
// goroutine, including those displaced for the whole run, exits.
func TestBorrowCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4, 1)
	waitIdle(t, p)
	const n = 100_000
	borrowed := 0
	for i := 0; i < n; i++ {
		p.Run(func(w *Worker) {
			if w.guest != nil {
				borrowed++
			}
		})
	}
	p.Close()
	if borrowed != n {
		t.Errorf("%d of %d sequential Runs on an idle pool borrowed, want all", borrowed, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Close, %d before the pool", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBorrowNeverOnLockedPool: a pool whose workers are locked to OS
// threads (WithOSThreads) never borrows — the root would run on the
// caller's thread instead of a worker's.
func TestBorrowNeverOnLockedPool(t *testing.T) {
	p := NewPoolPlaced(2, 1, true, nil)
	defer p.Close()
	waitIdle(t, p)
	var lent atomic.Int64
	for i := 0; i < 100; i++ {
		p.Run(func(w *Worker) {
			if w.guest != nil {
				lent.Add(1)
			}
		})
	}
	if n := lent.Load(); n != 0 {
		t.Errorf("a thread-locked pool lent an identity to the caller in %d of 100 Runs", n)
	}
}

// TestBorrowRefusedOnceClosing: once Close has begun, Run does not
// borrow, even on a pool whose workers are all still parked; it takes the
// submit path, whose handoff or closed check Close's drain accounts for.
// The test stops Close between its two halves — closed and quitting set,
// the workers not yet woken — where a borrow would otherwise succeed.
func TestBorrowRefusedOnceClosing(t *testing.T) {
	p := NewPool(2, 1)
	waitIdle(t, p)
	p.injectMu.Lock()
	p.closed = true
	p.injectMu.Unlock()
	p.quitting.Store(true)
	func() {
		defer func() { recover() }() // a Run that loses the race panics
		p.Run(func(w *Worker) {
			if w.guest != nil {
				t.Error("a Run after Close began borrowed an identity")
			}
		})
	}()
	// The rest of Close.
	for _, w := range p.workers {
		w.wake()
	}
	p.wg.Wait()
}
