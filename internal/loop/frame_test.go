package loop

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridloop/internal/sched"
)

// listed returns the frames in pool's free list, in list order, leaving
// them there.
func listed(pool *sched.Pool) []*frame {
	var fs []*frame
	for {
		f := sched.TakeFrame(pool, func(*sched.Pool, *frame) bool { return true })
		if f == nil {
			break
		}
		fs = append(fs, f)
	}
	for _, f := range fs {
		sched.PutFrame(pool, f)
	}
	return fs
}

// forOn runs For through Acquire and returns the frame the loop ran on.
func forOn(pool *sched.Pool, begin, end int, body Body, opts Options) *frame {
	r := start(Acquire(pool), &opts)
	r.For(begin, end, body)
	return r.f
}

// TestFrameRecyclingStress runs thousands of back-to-back root loops on a
// four-worker pool whose idle workers keep probing the registry, beside a
// goroutine reading LiveLoops. Plain loops (some with nested loops in
// their chunks) alternate with loops cancelled mid-run, through an
// external token or by a ForErr body's error, and with loops whose body
// panics. Every plain loop must tile its range exactly once, and a
// cancelled or panicked one must run no iteration twice. A frame whose
// loop panicked must never return to the pool's free list, every frame in
// the list must carry a live token that watches no context, and the frame
// of most plain loops must be back in the list, whether a probe still
// holds it or not: the list is read after every loop. Run under -race by make race and make
// stress.
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
		opts := Options{Strategy: Hybrid, Chunk: 16}
		if i%3 == 0 {
			opts.Strategy = DynamicStealing
		}
		cut := i * 7919 % n
		var nested atomic.Int64
		nestedWant := int64(0)
		var plain *frame // the frame a plain loop ran on
		switch i % 4 {
		case 0:
			plain = forOn(pool, 0, n, body, opts)
		case 1:
			if i%8 == 5 {
				err := start(Acquire(pool), &opts).ForErr(0, n, func(lo, hi int) error {
					body(lo, hi)
					if lo <= cut && cut < hi {
						return errStop
					}
					return nil
				})
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
			r := start(Acquire(pool), &opts)
			plain = r.f
			r.ForW(0, n, func(w *sched.Worker, lo, hi int) {
				body(lo, hi)
				for j := lo; j < hi; j++ {
					if j%512 == 0 {
						WorkerFor(w, 0, 64, func(l, h int) { nested.Add(int64(h - l)) }, Options{Strategy: Hybrid, Chunk: 4})
					}
				}
			})
		case 3:
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("loop %d: body panic not re-raised", i)
					}
				}()
				r := start(Acquire(pool), &opts)
				dead[r.f] = true
				r.For(0, n, func(lo, hi int) {
					body(lo, hi)
					if lo <= cut && cut < hi {
						panic("boom")
					}
				})
			}()
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
		for _, f := range listed(pool) {
			if dead[f] {
				t.Fatalf("loop %d: a frame whose loop panicked is back in the free list", i)
			}
			if f.cancel.Err() != nil || f.cancel.Watching() {
				t.Fatalf("loop %d (kind %d): a frame in the free list carries a used token", i, i%4)
			}
			if f == plain {
				recycled++ // held or not, the plain loop's own frame is back
			}
		}
	}
	if recycled < loops/4 {
		t.Fatalf("only %d of %d plain loops returned their frame to the free list", recycled, loops/2)
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
// until the other worker is caught. The frame goes back to the pool's free
// list flagged; the next loop, run while the trap still holds, must find
// it held and pass it over. The held frame waits in the list, so once the
// trapped worker has left, the next loop runs on it again, with none of
// the last loop's references.
func TestHeldFrameIsNotReused(t *testing.T) {
	pool := sched.NewPool(2, 5)
	defer pool.Close()
	opts := Options{Strategy: DynamicStealing, Chunk: 16}
	nop := func(lo, hi int) {}
	For(pool, 0, 4096, nop, opts) // fill the free list
	trap := &trapLoop{entered: make(chan struct{}), release: make(chan struct{})}
	r := start(Acquire(pool), &opts)
	held := r.f
	r.ForW(0, 4096, func(w *sched.Worker, lo, hi int) {
		if lo == 0 {
			trap.owner = w.ID()
			pool.RegisterLoopWeighted(trap, 1)
			<-trap.entered
		}
	})
	if !held.h.held {
		t.Fatal("UnregisterLoop did not report the descriptor held by the trapped probe")
	}
	reused := forOn(pool, 0, 4096, nop, opts) == held
	close(trap.release)
	pool.UnregisterLoop(trap)
	if reused {
		t.Fatal("a loop ran on a frame while a probe still held its descriptor")
	}
	for deadline := time.Now().Add(10 * time.Second); pool.LoopHeld(&held.h); {
		if time.Now().After(deadline) {
			t.Fatal("the trapped probe never released the frame")
		}
		time.Sleep(time.Millisecond)
	}
	r = start(Acquire(pool), &opts)
	if r.f != held {
		t.Fatal("the held frame did not wait in the free list for its probe to leave")
	}
	if held.body != nil || held.h.rs.body != nil {
		t.Fatal("the held frame reached its next loop still holding the last loop's body")
	}
	r.For(0, 4096, nop)
}

// TestFrameRecyclingNested: nested hybrid loops, started from the chunks
// of a busy outer hybrid loop on a four-worker pool, run on frames from
// the same free list as root loops. Every nested loop must tile its range
// exactly once, every frame in the free list must carry a live token that
// watches no context, and the thousands of nested loops must have run on
// a few dozen frames at most. A worker waiting for its nested loop may
// enter the outer loop through a probe and start another nested loop, so
// more nested loops than workers can be live at once.
func TestFrameRecyclingNested(t *testing.T) {
	const outer, inner, n = 200, 16, 1024
	pool := sched.NewPool(4, 11)
	defer pool.Close()
	var mu sync.Mutex
	frames := map[*frame]bool{}
	counts := make([]atomic.Int32, inner*n)
	nested := Options{Strategy: Hybrid, Chunk: 16}
	for i := 0; i < outer; i++ {
		ForW(pool, 0, inner, func(w *sched.Worker, lo, hi int) {
			for j := lo; j < hi; j++ {
				r := start(AcquireOn(w), &nested)
				mu.Lock()
				frames[r.f] = true
				mu.Unlock()
				r.For(0, n, func(l, h int) {
					for k := l; k < h; k++ {
						counts[j*n+k].Add(1)
					}
				})
			}
		}, Options{Strategy: Hybrid, Chunk: 1})
		for j := range counts {
			if c := counts[j].Swap(0); c != 1 {
				t.Fatalf("outer loop %d: nested iteration %d ran %d times", i, j, c)
			}
		}
		for _, f := range listed(pool) {
			if f.cancel.Err() != nil || f.cancel.Watching() {
				t.Fatalf("outer loop %d: a frame in the free list carries a used token", i)
			}
		}
	}
	t.Logf("%d nested loops ran on %d frames", outer*inner, len(frames))
	if len(frames) > 64 {
		t.Fatalf("%d nested loops ran on %d frames, want at most 64", outer*inner, len(frames))
	}
}

// TestHeldFrameNestedIsNotReused is TestHeldFrameIsNotReused for nested
// loops: a nested loop whose descriptor a trapped probe still holds when
// it returns puts its frame back flagged, and a nested loop started while
// the trap holds must pass that frame over. Inside a Run, LoopHeld scans
// once rather than waiting for the probe to leave. Once it has left, the
// next nested loop runs on the frame again.
func TestHeldFrameNestedIsNotReused(t *testing.T) {
	pool := sched.NewPool(2, 5)
	defer pool.Close()
	opts := Options{Strategy: DynamicStealing, Chunk: 16}
	nop := func(lo, hi int) {}
	trap := &trapLoop{entered: make(chan struct{}), release: make(chan struct{})}
	var held, reused, next *frame
	flagged := false
	// The free list starts empty: a frame put back held by a passing probe
	// would be passed over, not waited for, and the next acquire would
	// build the frame the test traps.
	pool.Run(func(w *sched.Worker) {
		r := start(AcquireOn(w), &opts)
		held = r.f
		r.ForW(0, 4096, func(cw *sched.Worker, lo, hi int) {
			if lo == 0 {
				trap.owner = cw.ID()
				pool.RegisterLoopWeighted(trap, 1)
				<-trap.entered
			}
		})
		flagged = held.h.held
		r = start(AcquireOn(w), &opts)
		reused = r.f
		r.For(0, 4096, nop)
	})
	close(trap.release)
	pool.UnregisterLoop(trap)
	if !flagged {
		t.Fatal("UnregisterLoop did not report the nested descriptor held by the trapped probe")
	}
	if reused == held {
		t.Fatal("a nested loop ran on a frame while a probe still held its descriptor")
	}
	for deadline := time.Now().Add(10 * time.Second); pool.LoopHeld(&held.h); {
		if time.Now().After(deadline) {
			t.Fatal("the trapped probe never released the frame")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Run(func(w *sched.Worker) {
		r := start(AcquireOn(w), &opts)
		next = r.f
		r.For(0, 4096, nop)
	})
	if next != held {
		t.Fatal("the held frame did not wait in the free list for its probe to leave")
	}
}

// TestFrameDropsLargeSums: a frame keeps the block sums of a Sum of up to
// maxKeptSums blocks for its next Sum, and gives up larger ones at
// release. One worker, which the caller borrows, so no probe holds a
// frame.
func TestFrameDropsLargeSums(t *testing.T) {
	pool := sched.NewPool(1, 3)
	defer pool.Close()
	opts := Options{Strategy: Hybrid}
	one := func(int) float64 { return 1 }
	for _, c := range []struct {
		blocks int
		kept   bool
	}{{maxKeptSums, true}, {maxKeptSums + 1, false}} {
		r := start(Acquire(pool), &opts)
		n := c.blocks * SumBlock
		if got := r.Sum(0, n, one); got != float64(n) {
			t.Fatalf("Sum over %d blocks = %v, want %d", c.blocks, got, n)
		}
		if kept := r.f.sums != nil; kept != c.kept {
			t.Errorf("after a Sum over %d blocks the frame keeps its block sums: %v, want %v", c.blocks, kept, c.kept)
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
	For(pool, 0, 4096, func(lo, hi int) {}, opts) // fill the free list
	trap := &trapLoop{entered: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	r := start(Acquire(pool), &opts)
	held := r.f
	err := r.ForCtx(ctx, 0, 4096, func(lo, hi int) {
		if lo == 0 {
			trap.owner = -1
			pool.RegisterLoopWeighted(trap, 1)
			<-trap.entered
		}
	})
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
	var ran atomic.Int64
	if forOn(pool, 0, 4096, func(lo, hi int) { ran.Add(int64(hi - lo)) }, opts) != held {
		t.Fatal("the next loop did not run on the frame its probe has left")
	}
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
// probe out (LoopHeld) rather than pass the frame over for a fresh one.
func TestHeldFrameBriefHoldIsReused(t *testing.T) {
	const rounds = 40
	pool := sched.NewPool(2, 5)
	defer pool.Close()
	opts := Options{Strategy: DynamicStealing, Chunk: 16}
	nop := func(lo, hi int) {}
	blip := &blipLoop{owner: -1, hold: 5 * time.Microsecond}
	pool.RegisterLoopWeighted(blip, 1)
	defer pool.UnregisterLoop(blip)
	For(pool, 0, 4096, nop, opts) // fill the free list
	reused, heldSeen := 0, 0
	for i := 0; i < rounds; i++ {
		blip.entered.Store(false)
		blip.letGo.Store(false)
		blip.left.Store(false)
		r := start(Acquire(pool), &opts)
		r.ForW(0, 4096, func(w *sched.Worker, lo, hi int) {
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
		})
		if r.f.h.held {
			heldSeen++
		}
		blip.letGo.Store(true)
		if forOn(pool, 0, 4096, nop, opts) == r.f {
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

// TestFrameRecyclingConcurrent: three callers each run 2 000 root loops
// on a two-worker pool, so loops overlap and a caller often finds the
// frame it last released still held by a probe of a loop beside it, and
// each caller forces a collection every 200 of its loops. Frames, their
// tokens and the registry's snapshots must survive both: after a warm-up,
// at most one loop in a hundred allocates. A rebuilt frame is a dozen
// objects, a fresh token one of 48 bytes and a fresh snapshot one of 64.
// The count leaves out two size classes the runtime fills on its own:
// every collection drops its central cache of channel-wait records
// (96 bytes), which the workers' parks then rebuild at up to a hundred per
// collection when they block on one P and resume on another, and runs the
// unique package's cleanup, a few 24-byte objects. A caller that finds
// every frame held by a probe its thief keeps past the wait, descheduled
// by the host, still builds a frame, so the test takes the best of three
// runs. Under -race only the loops' coverage is checked, as the race
// detector's own allocations would swamp the count.
func TestFrameRecyclingConcurrent(t *testing.T) {
	const callers, warm, loops, n, gcEvery = 3, 400, 2000, 2048, 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pool := sched.NewPool(2, 7)
	defer pool.Close()
	var total atomic.Int64
	body := func(lo, hi int) { total.Add(int64(hi - lo)) }
	run := func(k int) {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := Options{Strategy: Hybrid, Chunk: 16}
				for i := 1; i <= k; i++ {
					For(pool, 0, n, body, opts)
					if i%gcEvery == 0 {
						runtime.GC()
					}
				}
			}()
		}
		wg.Wait()
	}
	run(warm)
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best > 0.01; attempt++ {
		total.Store(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(loops)
		runtime.ReadMemStats(&after)
		if got, want := total.Load(), int64(callers*loops*n); got != want {
			t.Fatalf("the loops covered %d iterations, want %d", got, want)
		}
		var counted, all uint64
		for i, c := range after.BySize {
			m := c.Mallocs - before.BySize[i].Mallocs
			all += m
			if c.Size != 24 && c.Size != 96 {
				counted += m
			}
		}
		per := float64(counted) / (callers * loops)
		t.Logf("%d allocations, %d outside the 24 and 96 byte classes: %.4f per loop", all, counted, per)
		best = min(best, per)
	}
	if !raceEnabled && best > 0.01 {
		t.Fatalf("concurrent loops allocate %.4f objects each outside the 24 and 96 byte classes, want at most 0.01", best)
	}
}
