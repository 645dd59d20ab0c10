package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestTimeAccountingOffByDefault(t *testing.T) {
	p := NewPool(4, 1)
	defer p.Close()
	if p.TimeAccounting() {
		t.Fatal("time accounting on by default")
	}
	p.Run(func(w *Worker) {
		var g Group
		for i := 0; i < 32; i++ {
			w.Spawn(&g, func(w *Worker) { time.Sleep(100 * time.Microsecond) })
		}
		w.Wait(&g)
	})
	s := p.Stats()
	if s.BusyNanos != 0 || s.IdleNanos != 0 {
		t.Fatalf("accounting off but BusyNanos=%d IdleNanos=%d", s.BusyNanos, s.IdleNanos)
	}
}

func TestTimeAccountingCounters(t *testing.T) {
	p := NewPool(4, 1)
	defer p.Close()
	p.SetTimeAccounting(true)

	var ran atomic.Int64
	p.Run(func(w *Worker) {
		var g Group
		for i := 0; i < 64; i++ {
			w.Spawn(&g, func(w *Worker) {
				time.Sleep(200 * time.Microsecond)
				ran.Add(1)
			})
		}
		w.Wait(&g)
	})
	// Let the workers park so idle time starts accruing, then poke them
	// awake so the parked span is folded into the counters. An empty Run
	// would not do: it runs on this goroutine under a borrowed identity
	// and wakes nobody, so pin a no-op on every other worker instead.
	time.Sleep(20 * time.Millisecond)
	pokeAll(p)
	// A worker folds its busy burst when it parks, after its spin: with
	// every worker parked, Stats and PerWorker read the same counters.
	waitIdle(t, p)

	s, per := p.Stats(), p.PerWorker()
	if len(per) != 4 {
		t.Fatalf("PerWorker has %d rows, want 4", len(per))
	}
	if s.BusyNanos <= 0 {
		t.Fatalf("64 sleeping tasks ran (%d) but BusyNanos = %d", ran.Load(), s.BusyNanos)
	}
	// 64 tasks x 200us spread over 4 workers is >= ~3ms of aggregate busy
	// time; parking between the two Runs accrues idle time on at least
	// the workers the second Run woke.
	if s.BusyNanos < (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("BusyNanos = %v, implausibly small for 64x200us of work",
			time.Duration(s.BusyNanos))
	}
	if s.IdleNanos <= 0 {
		t.Fatalf("workers parked between runs but IdleNanos = %d", s.IdleNanos)
	}
	var sum int64
	for _, c := range per {
		sum += c.BusyNanos
	}
	if sum != s.BusyNanos {
		t.Fatalf("BusyNanos %d != sum of PerWorker BusyNanos %d", s.BusyNanos, sum)
	}

	p.ResetStats()
	s = p.Stats()
	if s.BusyNanos != 0 || s.IdleNanos != 0 {
		t.Fatalf("ResetStats left BusyNanos=%d IdleNanos=%d", s.BusyNanos, s.IdleNanos)
	}
}

// pokeAll wakes every worker but the caller's identity with a pinned
// no-op and joins them, so each folds its parked interval into the
// counters before pokeAll returns.
func pokeAll(p *Pool) {
	p.Run(func(w *Worker) {
		var g Group
		for i := 0; i < p.P(); i++ {
			if i != w.ID() {
				p.SpawnOn(i, &g, func(*Worker) {})
			}
		}
		w.Wait(&g)
	})
}

// TestTimeAccountingBorrowed: a borrowed run's time is busy time of the
// lent identity, and the displaced goroutine — parked the whole time —
// does not count the lent interval as idle.
func TestTimeAccountingBorrowed(t *testing.T) {
	p := NewPool(2, 1)
	p.SetTimeAccounting(true)
	// Re-park every worker with accounting on, so the displaced goroutine's
	// parked interval is timed, and drop what the first park folded in.
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	p.WakeAll()
	waitIdle(t, p)
	p.ResetStats()

	const lent = 30 * time.Millisecond
	id := -1
	t0 := time.Now()
	p.Run(func(w *Worker) {
		if w.guest == nil {
			t.Error("a sole Run on an idle pool did not borrow")
		}
		id = w.ID()
		time.Sleep(lent)
	})
	ran := time.Since(t0)
	if busy := time.Duration(p.PerWorker()[id].BusyNanos); busy < lent {
		t.Errorf("worker %d busy %v after a %v borrowed run, want at least %v", id, busy, ran, lent)
	}
	// Close wakes the displaced goroutine, which folds its parked interval.
	time.Sleep(5 * time.Millisecond)
	p.Close()
	total := time.Since(start)
	idle := time.Duration(p.PerWorker()[id].IdleNanos)
	if idle <= 0 || idle > total-lent {
		t.Errorf("worker %d idle %v over %v with %v lent, want in (0, %v]", id, idle, total, ran, total-lent)
	}
}
