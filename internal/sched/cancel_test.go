package sched

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCancellerBasics covers the token's state machine: live until the
// first Cancel, which alone observes the transition edge; the first
// non-nil cause wins; Err is nil while live and non-nil forever after.
func TestCancellerBasics(t *testing.T) {
	c := new(Canceller)
	if c.Cancelled() {
		t.Fatal("fresh token reports cancelled")
	}
	if c.Err() != nil {
		t.Fatalf("fresh token has error %v", c.Err())
	}
	first := errors.New("first")
	if !c.Cancel(first) {
		t.Fatal("first Cancel did not report the transition edge")
	}
	if c.Cancel(errors.New("second")) {
		t.Fatal("second Cancel reported the transition edge")
	}
	if !c.Cancelled() {
		t.Fatal("token not cancelled after Cancel")
	}
	if !errors.Is(c.Err(), first) {
		t.Fatalf("Err() = %v, want the first cause", c.Err())
	}
}

// TestCancellerNilReceiver: loop code polls tokens through fields that
// can legitimately be nil (a Group without BindCancel); every method
// must be a safe no-op on a nil receiver.
func TestCancellerNilReceiver(t *testing.T) {
	var c *Canceller
	if c.Cancel(errors.New("x")) {
		t.Fatal("nil token reported a cancel edge")
	}
	if c.Cancelled() {
		t.Fatal("nil token reports cancelled")
	}
	if c.Err() != nil {
		t.Fatalf("nil token has error %v", c.Err())
	}
}

// TestCancellerCancelNilCause: cancelling without a cause still trips the
// token and surfaces the generic sentinel.
func TestCancellerCancelNilCause(t *testing.T) {
	c := new(Canceller)
	if !c.Cancel(nil) {
		t.Fatal("Cancel(nil) did not trip the token")
	}
	if !errors.Is(c.Err(), ErrCancelled) {
		t.Fatalf("Err() = %v, want ErrCancelled", c.Err())
	}
}

// TestCancellerConcurrentFirstWins races N cancellers: exactly one may
// observe the edge, and the surviving cause must be one of the injected
// errors and stable across reads.
func TestCancellerConcurrentFirstWins(t *testing.T) {
	c := new(Canceller)
	const n = 16
	causes := make([]error, n)
	for i := range causes {
		causes[i] = errors.New("cause")
	}
	var wg sync.WaitGroup
	edges := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if c.Cancel(causes[i]) {
				edges <- i
			}
		}(i)
	}
	wg.Wait()
	close(edges)
	won := 0
	for range edges {
		won++
	}
	if won != 1 {
		t.Fatalf("%d goroutines observed the cancel edge, want exactly 1", won)
	}
	got := c.Err()
	found := false
	for _, cause := range causes {
		if errors.Is(got, cause) {
			found = true
		}
	}
	if !found {
		t.Fatalf("Err() = %v, not one of the injected causes", got)
	}
	if c.Err() != got {
		t.Fatal("Err() not stable across reads")
	}
}

// TestGroupPanicTripsBoundCanceller: a panic captured by a bound group
// must trip the token (so surviving loop workers stop within a chunk)
// and still re-raise as *TaskPanicError at Wait.
func TestGroupPanicTripsBoundCanceller(t *testing.T) {
	p := NewPool(2, 1)
	defer p.Close()
	c := new(Canceller)
	caught := false
	p.Run(func(w *Worker) {
		var g Group
		g.BindCancel(c)
		g.Add(1)
		w.Spawn(&g, func(cw *Worker) {
			defer g.Done()
			g.Protect(func() { panic("boom") })
		})
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*TaskPanicError); !ok {
						t.Errorf("Wait re-raised %T, want *TaskPanicError", r)
					}
					caught = true
				}
			}()
			w.Wait(&g)
		}()
	})
	if !caught {
		t.Fatal("panic did not surface at Wait")
	}
	if !c.Cancelled() {
		t.Fatal("captured panic did not trip the bound canceller")
	}
	if !errors.Is(c.Err(), ErrPanicked) {
		t.Fatalf("Err() = %v, want ErrPanicked", c.Err())
	}
}

// waitDemandZero polls the pool's demand count until it reads zero or the
// deadline passes. The retirements under test happen on worker park,
// which is asynchronous with the test goroutine.
func waitDemandZero(p *Pool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.demand.Load() == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestDemandRetiredOnPark: the demand count must not outlive the hungry
// thieves — a worker that gives up and parks retires its own unit (its
// idleness is represented by nparked from then on), so a quiescent pool
// always converges to a zero count and no staleness survives into the
// next loop.
func TestDemandRetiredOnPark(t *testing.T) {
	p := NewPool(2, 2)
	defer p.Close()
	// Wake every worker: each sweeps, finds nothing (transiently marking
	// itself hungry after the failed sweep), re-parks, and must retire
	// its demand unit on the way down.
	p.WakeAll()
	p.Notify()
	if !waitDemandZero(p) {
		t.Fatal("demand count still nonzero after every worker re-parked")
	}
}

// idleLoop is a registry entry that never feeds a thief; it exists so the
// unregister path can be driven directly.
type idleLoop struct{ LoopEntry }

func (*idleLoop) Live() bool            { return false }
func (*idleLoop) TrySteal(*Worker) bool { return false }

// TestDemandQuiescesAfterLastUnregister: registering and unregistering a
// loop (waking workers into failed sweeps along the way) must leave no
// stale demand behind once the pool quiesces — the per-worker accounting
// that replaced the old sticky flag retires itself without the unregister
// path having to clean anything up.
func TestDemandQuiescesAfterLastUnregister(t *testing.T) {
	p := NewPool(2, 3)
	defer p.Close()
	l := &idleLoop{}
	p.RegisterLoopWeighted(l, 1)
	p.UnregisterLoop(l)
	if !waitDemandZero(p) {
		t.Fatal("demand count still nonzero after the last loop unregistered and the pool quiesced")
	}
}

// TestWakeAllPoolStaysFunctional: WakeAll on a quiescent pool is a
// spurious wake of every worker — each must sweep, find nothing, and
// re-park without disturbing subsequent work.
func TestWakeAllPoolStaysFunctional(t *testing.T) {
	p := NewPool(4, 4)
	defer p.Close()
	time.Sleep(10 * time.Millisecond)
	p.WakeAll()
	p.WakeAll() // second delivery while tokens may still be pending
	done := false
	p.Run(func(w *Worker) { done = true })
	if !done {
		t.Fatal("pool did not run work after WakeAll")
	}
}
