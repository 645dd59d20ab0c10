package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for a joiner's spin (Worker.Wait, Worker.spin) and for the borrow
// path an iterative caller takes. Listed in STRESS_PATTERN.

// TestJoinSpinYieldsP: with one P and two workers, a solo join whose
// remaining piece is pinned to the other worker completes, and mostly
// without a park. The joiner spins while the pool is solo; were it to
// poll without yielding, the other worker could not run the piece until
// the spin ran out, and every join would park.
func TestJoinSpinYieldsP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const joins = 200
	p := NewPool(2, 3)
	defer p.Close()
	waitIdle(t, p)
	var ran atomic.Int64
	var joinerParks int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < joins; i++ {
			p.Run(func(w *Worker) {
				before := w.parks.Load()
				var g Group
				p.SpawnOn(1-w.ID(), &g, func(*Worker) { ran.Add(1) })
				w.Wait(&g)
				joinerParks += w.parks.Load() - before
			})
		}
	}()
	waitOrFail(t, done, "solo joins on one P")
	if got := ran.Load(); got != joins {
		t.Fatalf("%d of %d pinned pieces ran", got, joins)
	}
	t.Logf("%d of %d joins parked", joinerParks, joins)
	if joinerParks > joins/2 {
		t.Fatalf("%d of %d joins parked: the spin does not yield its P to the piece's worker", joinerParks, joins)
	}
}

// TestJoinSpinBounded: a solo join held open by a task blocked on a
// channel stops spinning and parks.
func TestJoinSpinBounded(t *testing.T) {
	p := NewPool(2, 3)
	defer p.Close()
	waitIdle(t, p)
	parksBefore := p.Stats().Parks
	release := make(chan struct{})
	var joiner atomic.Pointer[Worker]
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(func(w *Worker) {
			var g Group
			p.SpawnOn(1-w.ID(), &g, func(*Worker) { <-release })
			joiner.Store(w)
			w.Wait(&g)
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for joiner.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the join never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(time.Millisecond)
	for joiner.Load().state.Load() != wWaitParked {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("a join held open for seconds never parked (state %d)", joiner.Load().state.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if p.Stats().Parks <= parksBefore {
		t.Error("the joiner parked but Stats.Parks did not rise")
	}
	close(release)
	waitOrFail(t, done, "parked join")
}

// TestBorrowBackToBackRuns: back-to-back Runs from one goroutine, with the
// pool's other worker kept busy, run their root on a lent identity. The
// caller's borrowed worker stays parked between Runs (its displaced
// goroutine never wakes), so every Run finds it to borrow; this is the
// path an iterative caller such as the benchmark's iter_fine takes.
func TestBorrowBackToBackRuns(t *testing.T) {
	const runs = 10000
	p := NewPool(2, 7)
	defer p.Close()
	waitIdle(t, p)
	var stop atomic.Bool
	busyDone := make(chan struct{})
	var busy Group
	p.SpawnOn(1, &busy, func(*Worker) {
		defer close(busyDone)
		for !stop.Load() {
			runtime.Gosched()
		}
	})
	lent := 0
	for i := 0; i < runs; i++ {
		p.Run(func(w *Worker) {
			if w.guest != nil {
				lent++
			}
			var g Group
			w.Spawn(&g, func(*Worker) {})
			w.Wait(&g)
		})
	}
	stop.Store(true)
	waitOrFail(t, busyDone, "busy task")
	t.Logf("%d of %d Runs borrowed", lent, runs)
	if lent < runs*99/100 {
		t.Fatalf("only %d of %d back-to-back Runs ran on a lent identity", lent, runs)
	}
}
