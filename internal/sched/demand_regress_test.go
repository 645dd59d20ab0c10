package sched

// Regression tests for the two demand-hint races of the old pool-wide
// demand flag (a single sticky 0/1 word):
//
//  1. MeetDemand performed a check-then-act clear (Load() != 0 →
//     Store(0)): a hint raised by a concurrent thief's failed steal sweep
//     between the load and the store was silently erased before any owner
//     advertised surplus, so the thief could keep sweeping while owners
//     saw no demand.
//  2. A parking worker performed the same check-then-act clear on its way
//     down, erasing the demand of *other* live loops' still-active
//     thieves — correct only while benchmarks ran one loop at a time.
//
// Both races are gone structurally: demand is now an exact census of
// hungry workers (one unit per worker, retired by the worker itself when
// it acquires work or parks), so there is no shared clear operation left
// to lose anybody else's signal. The tests below drive the transitions
// directly on a pool whose workers are NOT started, so every interleaving
// is deterministic; under the old flag scheme the equivalent sequences
// read back a cleared signal and fail.

import (
	"sync"
	"testing"
)

// newStoppedPool builds a pool whose worker goroutines are not running,
// so demand transitions can be driven deterministically from the test.
func newStoppedPool(n int) *Pool {
	p := &Pool{}
	p.workers = make([]*Worker, n)
	for i := range p.workers {
		p.workers[i] = &Worker{id: i, pool: p, park: make(chan struct{}, 1)}
	}
	return p
}

// TestMeetDemandKeepsConcurrentDemand: servicing demand (MeetDemand) must
// not erase demand units it did not observe. Old behavior: worker 0's
// failed sweep raises the flag; an owner's MeetDemand clears it; worker
// 1's concurrent failed sweep between the owner's load and store is wiped
// along with it — Demand() reads false while a thief is still hungry.
func TestMeetDemandKeepsConcurrentDemand(t *testing.T) {
	p := newStoppedPool(3)
	w0, w1 := p.workers[0], p.workers[1]

	w0.noteHungry()
	p.MeetDemand() // an owner services the observation
	if !p.Demand() || p.DemandCount() != 1 {
		t.Fatalf("MeetDemand erased a live demand unit: count = %d", p.DemandCount())
	}

	// A second thief goes hungry while owners keep servicing: its unit
	// must survive any number of MeetDemand calls.
	w1.noteHungry()
	for i := 0; i < 100; i++ {
		p.MeetDemand()
	}
	if got := p.DemandCount(); got != 2 {
		t.Fatalf("demand count = %d after concurrent raise + services, want 2", got)
	}

	// Feeding retires exactly the fed worker's unit, nobody else's.
	w0.noteFed()
	if got := p.DemandCount(); got != 1 {
		t.Fatalf("demand count = %d after one worker fed, want 1", got)
	}
	w1.noteFed()
	if p.DemandCount() != 0 || p.Demand() {
		t.Fatal("demand did not quiesce after every hungry worker was fed")
	}
}

// TestMeetDemandRaceStress hammers MeetDemand and Demand from concurrent
// goroutines while two workers flip between hungry and fed (each worker's
// transitions driven by a single goroutine, as in the real scheduler).
// The accounting must end exactly where the transitions left it — under
// the old flag scheme the concurrent clears lose raises nondeterministically.
// Run with -race.
func TestMeetDemandRaceStress(t *testing.T) {
	p := newStoppedPool(4)
	const rounds = 10000
	var wg sync.WaitGroup
	for _, w := range p.workers[:2] {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				w.noteHungry()
				w.noteFed()
			}
			w.noteHungry() // end hungry: the unit must survive the hammering
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.MeetDemand()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.Demand()
		}
	}()
	wg.Wait()
	if got := p.DemandCount(); got != 2 {
		t.Fatalf("demand count = %d after stress, want 2 (both workers ended hungry)", got)
	}
}

// TestParkingRetainsOtherWorkersDemand: the park-time retirement must be
// scoped to the parking worker's own unit. Old behavior: with two live
// loops, loop A's thief (worker 0) is hungry and still actively sweeping
// when worker 1 — idle because loop B just drained — parks and clears the
// pool-wide flag, erasing worker 0's signal: loop A's owner stops
// advertising surplus although a thief wants it.
func TestParkingRetainsOtherWorkersDemand(t *testing.T) {
	p := newStoppedPool(3)
	w0, w1 := p.workers[0], p.workers[1]

	w0.noteHungry() // loop A's thief, still sweeping
	w1.noteHungry() // about to give up and park

	// The exact mainLoop park sequence: announce, then retire own unit.
	w1.state.Store(wParking)
	p.nparked.Add(1)
	w1.noteFed()

	if got := p.DemandCount(); got != 1 {
		t.Fatalf("parking retired another worker's demand unit: count = %d, want 1", got)
	}
	if !p.Demand() {
		t.Fatal("Demand() = false while another worker is still hungry")
	}

	// After worker 1 wakes again the other thief's unit must still stand.
	w1.state.Store(wActive)
	p.nparked.Add(-1)
	if !p.Demand() || p.DemandCount() != 1 {
		t.Fatalf("demand lost across a park/unpark of an unrelated worker: count = %d", p.DemandCount())
	}
}

// stubLoop is a registry entry with controllable liveness for deficit-
// order unit tests; it never actually feeds a thief.
type stubLoop struct {
	LoopEntry
	live bool
}

func (l *stubLoop) Live() bool            { return l.live }
func (l *stubLoop) TrySteal(*Worker) bool { return false }

func mkEntry(id uint64, weight int32, served int64, live bool) *LoopEntry {
	e := &LoopEntry{l: &stubLoop{live: live}, id: id, weight: weight}
	e.served.Store(served)
	return e
}

// TestNextLoopIndexDeficitOrder pins the probe-order rule: the live,
// untried loop with the smallest served/weight ratio wins; ties go to
// registration order; dead and already-tried loops are skipped.
func TestNextLoopIndexDeficitOrder(t *testing.T) {
	cases := []struct {
		name    string
		entries []*LoopEntry
		tried   uint64
		want    int
	}{
		{"fresh loop beats served giant",
			[]*LoopEntry{mkEntry(1, 1, 100, true), mkEntry(2, 1, 0, true)}, 0, 1},
		{"weight scales entitlement",
			// 10/10 = 1 < 2/1 = 2: the weighted loop is less over-served.
			[]*LoopEntry{mkEntry(1, 10, 10, true), mkEntry(2, 1, 2, true)}, 0, 0},
		{"tie goes to registration order",
			[]*LoopEntry{mkEntry(1, 1, 5, true), mkEntry(2, 1, 5, true)}, 0, 0},
		{"dead loops skipped",
			[]*LoopEntry{mkEntry(1, 1, 0, false), mkEntry(2, 1, 50, true)}, 0, 1},
		{"tried loops skipped",
			[]*LoopEntry{mkEntry(1, 1, 0, true), mkEntry(2, 1, 50, true)}, 1 << 0, 1},
		{"nothing left",
			[]*LoopEntry{mkEntry(1, 1, 0, false), mkEntry(2, 1, 0, true)}, 1 << 1, -1},
	}
	for _, c := range cases {
		if got := nextLoopIndex(c.entries, c.tried); got != c.want {
			t.Errorf("%s: nextLoopIndex = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestDeficitOrderConvergesToWeightedShares: repeatedly serving whichever
// loop the deficit rule picks must converge service counts to the weight
// ratio — the weighted-fair-queueing property behind "a priority-8
// request loop keeps receiving workers beside a priority-1 batch loop".
func TestDeficitOrderConvergesToWeightedShares(t *testing.T) {
	a := mkEntry(1, 3, 0, true)
	b := mkEntry(2, 1, 0, true)
	entries := []*LoopEntry{a, b}
	for i := 0; i < 400; i++ {
		k := nextLoopIndex(entries, 0)
		entries[k].served.Add(1)
	}
	sa, sb := a.served.Load(), b.served.Load()
	if sa+sb != 400 {
		t.Fatalf("total served = %d, want 400", sa+sb)
	}
	// Exact WFQ would give 300/100; allow ±2 for boundary effects.
	if sa < 298 || sa > 302 {
		t.Fatalf("weight-3 loop served %d of 400, want ~300 (weight-1 got %d)", sa, sb)
	}
}
