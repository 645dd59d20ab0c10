package loop

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridloop/internal/sched"
)

// slotFrame returns the frame in pool's single-slot cache, leaving it
// there: with one caller, the frame the next root loop runs on.
func slotFrame(pool *sched.Pool) *frame {
	f := sched.TakeFrame[frame](pool)
	if f != nil {
		sched.PutFrame(pool, f)
	}
	return f
}

// TestFrameRecyclingStress runs thousands of back-to-back root loops on a
// four-worker pool whose idle workers keep probing the registry, beside a
// goroutine reading LiveLoops. Plain loops (some with nested loops in
// their chunks) alternate with loops cancelled mid-run, through an
// external token or by a ForErr body's error, and with loops whose body
// panics. Every plain loop must tile its range exactly once, and a
// cancelled or panicked one must run no iteration twice. A frame whose
// loop panicked must never be handed out again, and a frame in the slot
// must carry a live token that watches no context: the frame a loop will
// run on is the one in the pool's slot, so the slot is read before and
// after every loop. Run under -race by make race and make stress.
func TestFrameRecyclingStress(t *testing.T) {
	const loops, n = 3000, 2048
	pool := sched.NewPool(4, 17)
	defer pool.Close()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				pool.LiveLoops()
			}
		}
	}()
	defer func() {
		close(stop)
		reader.Wait()
	}()

	counts := make([]atomic.Int32, n)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i].Add(1)
		}
	}
	errStop := errors.New("stop")
	dead := map[*frame]bool{}
	recycled := 0
	for i := 0; i < loops; i++ {
		next := slotFrame(pool)
		if next != nil && dead[next] {
			t.Fatalf("loop %d: a frame whose loop panicked is handed out again", i)
		}
		opts := Options{Strategy: Hybrid, Chunk: 16}
		if i%3 == 0 {
			opts.Strategy = DynamicStealing
		}
		cut := i * 7919 % n
		var nested atomic.Int64
		nestedWant := int64(0)
		switch i % 4 {
		case 0:
			For(pool, 0, n, body, opts)
		case 1:
			if i%8 == 5 {
				err := ForErr(pool, 0, n, func(lo, hi int) error {
					body(lo, hi)
					if lo <= cut && cut < hi {
						return errStop
					}
					return nil
				}, opts)
				if !errors.Is(err, errStop) {
					t.Fatalf("loop %d: ForErr returned %v, want its body's error", i, err)
				}
				break
			}
			c := new(sched.Canceller)
			opts.Cancel = c
			For(pool, 0, n, func(lo, hi int) {
				body(lo, hi)
				if lo <= cut && cut < hi {
					c.Cancel(errStop)
				}
			}, opts)
			if !errors.Is(c.Err(), errStop) {
				t.Fatalf("loop %d: token not cancelled by its body", i)
			}
		case 2:
			nestedWant = n / 512 * 64
			ForW(pool, 0, n, func(w *sched.Worker, lo, hi int) {
				body(lo, hi)
				for j := lo; j < hi; j++ {
					if j%512 == 0 {
						WorkerFor(w, 0, 64, func(l, h int) { nested.Add(int64(h - l)) }, Options{Strategy: Hybrid, Chunk: 4})
					}
				}
			}, opts)
		case 3:
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("loop %d: body panic not re-raised", i)
					}
				}()
				For(pool, 0, n, func(lo, hi int) {
					body(lo, hi)
					if lo <= cut && cut < hi {
						panic("boom")
					}
				}, opts)
			}()
		}
		if i%4 == 3 && next != nil {
			dead[next] = true
		}
		for j := range counts {
			c := counts[j].Swap(0)
			if c > 1 || (i%2 == 0 && c != 1) {
				t.Fatalf("loop %d (%v, kind %d): iteration %d ran %d times", i, opts.Strategy, i%4, j, c)
			}
		}
		if got := nested.Load(); got != nestedWant {
			t.Fatalf("loop %d: nested loops covered %d iterations, want %d", i, got, nestedWant)
		}
		if f := slotFrame(pool); f != nil {
			if dead[f] {
				t.Fatalf("loop %d: a frame whose loop panicked is back in the slot", i)
			}
			if f.cancel.Err() != nil || f.cancel.Watching() {
				t.Fatalf("loop %d (kind %d): the frame in the slot carries a used token", i, i%4)
			}
			if i%2 == 0 {
				recycled++
			}
		}
	}
	if recycled < loops/4 {
		t.Fatalf("only %d of %d plain loops returned their frame to the slot", recycled, loops/2)
	}
}

// trapLoop is a registry entry that traps the first worker other than
// owner whose probe enters it, until released.
type trapLoop struct {
	sched.LoopEntry
	owner   int
	sprung  atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *trapLoop) Live() bool { return !b.sprung.Load() }

func (b *trapLoop) TrySteal(w *sched.Worker) bool {
	if w.ID() == b.owner || !b.sprung.CompareAndSwap(false, true) {
		return false
	}
	close(b.entered)
	<-b.release
	return true
}

// TestHeldFrameIsNotReused: a worker that entered another registered loop
// through a probe holds a snapshot that also lists the root loop's
// descriptor, so no loop may run on the root loop's frame while that
// worker is held. The root loop is DynamicStealing, whose chunk at 0 its
// owner runs first; that chunk registers the trap, so any probe that
// reaches the trap validated a snapshot listing the root loop, and waits
// until the other worker is caught. The frame goes back to the pool's slot
// flagged; the next loop, run while the trap still holds, must find it
// held and leave it to the collector, so it is never handed out again.
func TestHeldFrameIsNotReused(t *testing.T) {
	pool := sched.NewPool(2, 5)
	defer pool.Close()
	opts := Options{Strategy: DynamicStealing, Chunk: 16}
	nop := func(lo, hi int) {}
	For(pool, 0, 4096, nop, opts) // fill the slot
	held := slotFrame(pool)
	if held == nil {
		t.Fatal("a plain loop did not recycle its frame")
	}
	trap := &trapLoop{entered: make(chan struct{}), release: make(chan struct{})}
	ForW(pool, 0, 4096, func(w *sched.Worker, lo, hi int) {
		if lo == 0 {
			trap.owner = w.ID()
			pool.RegisterLoopWeighted(trap, 1)
			<-trap.entered
		}
	}, opts)
	if !held.h.held {
		t.Fatal("UnregisterLoop did not report the descriptor held by the trapped probe")
	}
	For(pool, 0, 4096, nop, opts)
	reused := slotFrame(pool) == held
	close(trap.release)
	pool.UnregisterLoop(trap)
	if reused {
		t.Fatal("a loop ran on a frame while a probe still held its descriptor")
	}
	for i := 0; i < 100; i++ {
		For(pool, 0, 4096, nop, opts)
		if slotFrame(pool) == held {
			t.Fatalf("loop %d: the held frame is handed out again", i)
		}
	}
}

// TestHeldFrameWatchedTokenIsReplaced: a ForCtx loop whose frame a probe
// still holds at release leaves its token watching the caller's context,
// and a poll of that token by the stale probe, after the caller cancels
// its context, trips it. The frame must reach its next loop with a fresh
// token: a plain For on it then runs every iteration, where one on the
// tripped token would drain its partitions and run none.
func TestHeldFrameWatchedTokenIsReplaced(t *testing.T) {
	pool := sched.NewPool(2, 5)
	defer pool.Close()
	opts := Options{Strategy: DynamicStealing, Chunk: 16}
	For(pool, 0, 4096, func(lo, hi int) {}, opts) // fill the slot
	held := slotFrame(pool)
	if held == nil {
		t.Fatal("a plain loop did not recycle its frame")
	}
	trap := &trapLoop{entered: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	err := ForCtx(pool, ctx, 0, 4096, func(lo, hi int) {
		if lo == 0 {
			trap.owner = -1
			pool.RegisterLoopWeighted(trap, 1)
			<-trap.entered
		}
	}, opts)
	if err != nil {
		t.Fatalf("ForCtx on a live context returned %v", err)
	}
	if !held.h.held {
		t.Fatal("UnregisterLoop did not report the descriptor held by the trapped probe")
	}
	cancel()
	// The stale probe's poll, through the options it can still reach.
	if !held.opts.Cancel.Cancelled() {
		t.Fatal("a poll of the held frame's old token did not see its cancelled context")
	}
	close(trap.release)
	pool.UnregisterLoop(trap)
	for deadline := time.Now().Add(10 * time.Second); pool.LoopHeld(&held.h); {
		if time.Now().After(deadline) {
			t.Fatal("the trapped probe never released the frame")
		}
		time.Sleep(time.Millisecond)
	}
	if slotFrame(pool) != held {
		t.Fatal("the held frame is not the one the next loop runs on")
	}
	var ran atomic.Int64
	For(pool, 0, 4096, func(lo, hi int) { ran.Add(int64(hi - lo)) }, opts)
	if got := ran.Load(); got != 4096 {
		t.Fatalf("the next loop on the frame ran %d of 4096 iterations", got)
	}
}

// blipLoop is a registry entry that, once armed, catches the first probe
// of a worker other than owner and holds it until the test lets go and
// for hold after that: a probe that leaves a moment after its loop's
// owner moved on. When the other worker ran the chunk at 0, the probe
// caught is the caller's own join, which the test cannot let go before
// its loop returns; so a hold also ends after 100 ms, and that round's
// frame is simply not held.
type blipLoop struct {
	sched.LoopEntry
	owner   int
	hold    time.Duration
	armed   atomic.Bool
	entered atomic.Bool
	letGo   atomic.Bool
	left    atomic.Bool
}

func (b *blipLoop) Live() bool { return b.armed.Load() }

func (b *blipLoop) TrySteal(w *sched.Worker) bool {
	if w.ID() == b.owner || !b.armed.CompareAndSwap(true, false) {
		return false
	}
	b.entered.Store(true)
	for start := time.Now(); !b.letGo.Load() && time.Since(start) < 100*time.Millisecond; {
		runtime.Gosched()
	}
	for start := time.Now(); time.Since(start) < b.hold; {
	}
	b.left.Store(true)
	return true
}

// TestHeldFrameBriefHoldIsReused: a probe that still holds a root loop's
// frame when the loop returns, and leaves a few microseconds later, must
// not cost the next loop a fresh frame. This is a thief leaving its probe
// after running the last piece of a loop whose joiner spun and returned
// at once. The other worker is caught in a second registered loop while
// its snapshot lists the root loop, and is let go just before the next
// loop starts; that loop's acquire finds the frame held and must wait the
// probe out (LoopHeld) rather than leave the frame to the collector.
func TestHeldFrameBriefHoldIsReused(t *testing.T) {
	const rounds = 40
	pool := sched.NewPool(2, 5)
	defer pool.Close()
	opts := Options{Strategy: DynamicStealing, Chunk: 16}
	nop := func(lo, hi int) {}
	blip := &blipLoop{owner: -1, hold: 5 * time.Microsecond}
	pool.RegisterLoopWeighted(blip, 1)
	defer pool.UnregisterLoop(blip)
	For(pool, 0, 4096, nop, opts) // fill the slot
	reused, heldSeen := 0, 0
	for i := 0; i < rounds; i++ {
		blip.entered.Store(false)
		blip.letGo.Store(false)
		blip.left.Store(false)
		ForW(pool, 0, 4096, func(w *sched.Worker, lo, hi int) {
			if lo == 0 {
				blip.owner = w.ID()
				blip.armed.Store(true)
				for deadline := time.Now().Add(5 * time.Second); !blip.entered.Load(); {
					pool.WakeAll() // a parked worker probes only once woken
					if time.Now().After(deadline) {
						t.Error("no probe entered the blip loop")
						blip.armed.Store(false)
						return
					}
					runtime.Gosched()
				}
			}
		}, opts)
		f := slotFrame(pool)
		if f == nil {
			t.Fatalf("round %d: the loop did not recycle its frame", i)
		}
		if f.h.held {
			heldSeen++
		}
		blip.letGo.Store(true)
		For(pool, 0, 4096, nop, opts)
		if slotFrame(pool) == f {
			reused++
		}
		if t.Failed() {
			t.FailNow()
		}
		for !blip.left.Load() {
			runtime.Gosched()
		}
	}
	t.Logf("held after %d of %d rounds, reused after %d", heldSeen, rounds, reused)
	if heldSeen < rounds/2 {
		t.Fatalf("the caught probe held the frame after only %d of %d rounds", heldSeen, rounds)
	}
	if reused < rounds*3/4 {
		t.Fatalf("a frame held for a few microseconds was rebuilt in %d of %d rounds", rounds-reused, rounds)
	}
}
