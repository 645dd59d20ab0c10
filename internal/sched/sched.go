// Package sched implements a user-level fork-join work-stealing runtime —
// the substrate the paper's hybrid scheme plugs into (OpenCilk in the
// paper; built here from scratch over goroutines, per the reproduction
// plan in DESIGN.md).
//
// A Pool owns P workers, each a dedicated goroutine with its own Chase–Lev
// deque. Work is expressed as fork-join tasks: a running task Spawns
// children bound to a Group and Waits on the Group, during which the
// worker *helps* — it pops its own deque and steals from random victims —
// so workers never block while runnable work exists. This mirrors the
// work-first discipline of the paper's Section II substrate: the owner
// executes its deque bottom-up (LIFO, cache-hot), thieves steal top-down
// (FIFO, the biggest remaining piece).
//
// The Pool additionally implements the paper's DoHybridLoop steal
// protocol: active hybrid loops register themselves, and an idle worker w
// that would otherwise steal at random first probes each registered loop's
// partition structure; if w's designated partition A[w] is unclaimed, the
// worker enters the loop's claim sequence with its own worker ID
// (Section III, "Steal protocol for DoHybridLoop frames").
//
// # Wake policy
//
// While one caller drives the pool, idle workers stay reachable without a
// wake for a short while: a worker that finds nothing keeps sweeping for
// parkSpin (20 µs), yielding its P between sweeps, so the next loop of an
// iterative caller usually needs no wake to recruit it. Only then does a
// worker park, on a per-worker wake-token channel. A joiner does the same
// before it parks in Wait, so a join whose last piece a thief finishes
// within the window costs the joiner no park and the thief's last Done no
// wake; because the spin yields, it never withholds the P from the
// goroutine that holds the join's last piece, even with fewer Ps than
// workers. Making work visible (Spawn, external submission, loop
// registration) wakes exactly ONE parked worker, chosen round-robin —
// never all of them, avoiding the
// thundering herd of a broadcast (cf. Rokos et al., "An Interrupt-Driven
// Work-Sharing For-Loop Scheduler"). Throughput is preserved by wake
// chaining: a worker that acquires work and observes surplus behind it —
// a steal from a victim whose deque is still non-empty, an injected task
// with more queued behind it, or a hybrid-loop claim with partitions
// still unclaimed — wakes the next parked worker before executing, so
// wakeups propagate one hop per surplus observation while work remains.
//
// Lost-wakeup freedom relies on the announce-then-sweep handshake: a
// worker announces parking (its state word, then the pool's nparked
// counter) *before* its final sweep for work, and every producer makes
// work visible *before* reading nparked. If the producer reads
// nparked == 0, the parker's announce — and hence its final sweep —
// happens after the work was published, so the sweep finds it; otherwise
// the producer delivers a wake (or observes one already pending, which
// guarantees a future full sweep by that worker).
//
// Parking itself is a futex-style single-word wait: each worker carries a
// state word (active → parking → parked, or waitparked inside a join,
// with notified as the wake edge). The uncontended wake is one CAS; only
// a wake that catches the worker fully parked touches a capacity-1 token
// channel, and a wake that lands during the parking announcement is
// consumed without any channel traffic at all. No path allocates. See
// Worker.wake and Worker.mainLoop.
//
// The caller is a worker: a Run with no other Run in flight wakes nobody.
// It borrows a parked worker's identity (parked → lent) and runs the root
// on the calling goroutine as that worker, so a loop that fits in the
// caller never leaves it and its join needs no cross-goroutine wake. See
// Pool.borrow and Pool.handBack.
//
// The caller gets the P back. With several Runs in flight a root is
// submitted, and the caller blocks until a worker has run it. The
// worker's completion signal makes the caller runnable in the worker's
// own P, but only as the next goroutine to run there: a worker that then
// carried on would keep the P, and with GOMAXPROCS = P the caller would
// wait in the run queue for the worker to park or be preempted. So the
// worker yields its P right after the signal, unless the yield would
// stall a loop whose weight is at least the root's: one it interrupted to
// run the root (ServeInjected), whose published remainder only it can
// release. Among loops, priority decides who holds a P, as it decides
// whom an idle worker serves. See Pool.RunWeighted.
//
// Priority also decides which submitted root runs next. The injection
// queue keeps each root's loop weight, and every taker pops the heaviest,
// FIFO among equals. A worker inside a loop serves the queue at the
// loop's poll points by weighted round robin: roots heavier than the loop
// run back to back, in proportion to the weight ratio, before the loop's
// next window; lighter ones wait the inverse ratio of polls. So a request
// is not queued behind a batch tenant's window, nor its owner stalled
// behind a batch root it picked up. See Pool.ServeInjected.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop/internal/deque"
	"hybridloop/internal/rng"
)

// Task is a unit of work executed by a worker. Tasks must not block on
// anything other than Group.Wait (which helps rather than blocking).
type Task func(w *Worker)

// Group tracks a set of spawned tasks for a join, like a sync.WaitGroup
// whose Wait helps execute work instead of blocking the worker.
type Group struct {
	pending atomic.Int64
	panics  atomic.Pointer[taskPanic]
	// waiter is the single worker (if any) parked inside Wait on this
	// group: the Done that drives pending to zero wakes it directly, so a
	// join whose last task completes elsewhere costs one CAS + one notify
	// instead of the old Gosched/sleep polling ladder. One slot suffices —
	// every loop strategy has exactly one joining worker; a second
	// concurrent waiter falls back to yielding (see Worker.Wait).
	waiter atomic.Pointer[Worker]
	// cancel, when bound, is tripped by the first panic captured into the
	// group, so the loop the group joins halts its surviving workers
	// instead of letting them grind to the Wait that re-raises the panic.
	cancel *Canceller
}

// BindCancel attaches a cancellation token to the group: the first panic
// captured into the group cancels the token (with ErrPanicked as cause).
// Must be called before any task bound to the group is spawned — the
// field is plain, published to workers by the spawn that hands them the
// group.
func (g *Group) BindCancel(c *Canceller) { g.cancel = c }

// clampWeight maps a loop weight to the int32 the scheduler keeps,
// selecting the default weight 1 for anything below it.
func clampWeight(weight int) int32 {
	if weight < 1 {
		return 1
	}
	return int32(min(weight, 1<<30))
}

// taskPanic carries a panic from the worker that caught it to the task
// that joins on the group.
type taskPanic struct {
	value any
	stack []byte
}

// Add records n tasks that must complete before Wait returns. As with
// sync.WaitGroup, all Adds for a wave of spawns must happen before the
// corresponding Wait begins.
func (g *Group) Add(n int) { g.pending.Add(int64(n)) }

// Done marks one task complete. The runtime calls this automatically for
// tasks spawned with Worker.Spawn; call it manually only for work enrolled
// via Add without Spawn. The Done that drives the counter to zero wakes
// the worker parked in Wait, if there is one: the decrement-to-zero and
// the waiter registration in Wait are both sequentially consistent, so
// either Done sees the registered waiter or the waiter's post-announce
// Finished check sees the zero — a lost wakeup would require both reads
// to precede both writes, which no total order allows.
//
//sched:noalloc
func (g *Group) Done() {
	n := g.pending.Add(-1)
	if n < 0 {
		panic("sched: Group counter went negative")
	}
	if n == 0 {
		if w := g.waiter.Load(); w != nil {
			w.wake()
		}
	}
}

// Finished reports whether all enrolled tasks have completed.
func (g *Group) Finished() bool { return g.pending.Load() <= 0 }

// capture records a panic value into the group (first panic wins),
// unwrapping a *TaskPanicError re-raised by a nested Wait so the original
// stack is kept.
func (g *Group) capture(r any) {
	if tpe, ok := r.(*TaskPanicError); ok {
		g.panics.CompareAndSwap(nil, &taskPanic{value: tpe.Value, stack: tpe.Stack})
	} else {
		g.panics.CompareAndSwap(nil, &taskPanic{value: r, stack: debug.Stack()})
	}
	// A panicking body halts the rest of the loop, not just the worker it
	// ran on: trip the bound token so every other participant stops at its
	// next per-chunk poll instead of executing the remaining iterations.
	g.cancel.Cancel(ErrPanicked)
}

// Protect runs fn, capturing any panic into the group so that the Wait
// joining it re-raises the panic on the waiting worker. Runtime components
// that execute user code outside a spawned task — such as the hybrid
// loop's claim-and-execute path, which runs partitions synchronously on
// whichever worker entered via the steal protocol — use Protect so a
// panicking loop body cannot kill a scheduler worker.
func (g *Group) Protect(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			g.capture(r)
		}
	}()
	fn()
}

// HybridLoop is the interface the Pool's steal protocol uses to let idle
// workers enter a live hybrid loop with their own worker ID. It is
// implemented by the hybrid strategy in internal/loop; sched depends only
// on this abstraction.
//
// Implementations embed a LoopEntry, the registry's record of the loop, so
// registering a loop allocates no entry of its own.
type HybridLoop interface {
	// TrySteal gives worker w a chance to enter the loop per the
	// DoHybridLoop steal protocol. It returns true if the worker did work
	// (claimed and executed at least one partition), and then has counted
	// the entry with Worker.NoteLoopEntry.
	TrySteal(w *Worker) bool
	// Live reports whether the loop may still have unclaimed partitions.
	Live() bool
	// entry is promoted from the embedded LoopEntry.
	entry() *LoopEntry
}

// Stats aggregates scheduler counters across workers.
type Stats struct {
	Tasks  int64 // tasks executed
	Steals int64 // successful steals
	// FailedSteals counts unsuccessful steal SWEEPS: one per full
	// round over all P-1 victims that found nothing — not one per
	// victim probed. An idle worker cycling through empty deques
	// increments this once per cycle.
	FailedSteals int64
	LoopEntries  int64 // hybrid-loop entries via the steal protocol
	// RangeSteals counts steal-half operations: a thief CASing off the
	// upper half of a victim's published lazy-split range descriptor.
	// These transfers bypass the deque entirely, so they are NOT included
	// in Steals; each one corresponds to exactly one trace.RangeSplit (or
	// RangeSplitRemote) event when the loop is traced.
	RangeSteals int64
	// RemoteSteals / RemoteRangeSteals are the cross-socket subsets of
	// Steals / RangeSteals under a hierarchical placement: transfers where
	// thief and victim sit on different sockets. Local counts are the
	// differences (Steals−RemoteSteals etc.); with a flat (nil) placement
	// both are always zero.
	RemoteSteals      int64
	RemoteRangeSteals int64
	// Parks counts committed park transitions: a worker actually blocking
	// on its state word after a failed announce-then-sweep, not wakes that
	// land during the announcement. Bumped only on the blocking slow path.
	Parks int64
	// BusyNanos is the time workers spent executing work (bursts of
	// consecutive successful task acquisitions; the clock is read at
	// busy↔idle transitions, not per task, so the counter costs nothing on
	// the per-task hot path); IdleNanos is the time they spent parked.
	// Both are sums over workers (PerWorker has each worker's share) and
	// zero unless SetTimeAccounting(true).
	BusyNanos int64
	IdleNanos int64
}

// Pool is a work-stealing scheduler with a fixed set of workers.
type Pool struct {
	workers []*Worker
	// placement is the worker→socket map driving hierarchical victim
	// selection; nil is the flat single-socket default. Immutable after
	// construction.
	placement *Placement

	injectMu sync.Mutex
	inject   taskRing // external submissions, consumed by idle workers
	closed   bool     // guarded by injectMu; makes Close/submit mutually exclusive

	nparked    atomic.Int64  // workers announced as parking or parked
	wakeCursor atomic.Uint32 // round-robin start for targeted wakeups
	// demand is the exact count of hungry workers: workers whose last
	// steal sweep covered every victim and found nothing, and which have
	// not yet acquired work or parked. Each worker contributes at most
	// one unit (Worker.hungry); the count retires autonomously as hungry
	// workers find work, so there is no clear operation — and none of the
	// check-then-act races the old pool-wide 0/1 flag had, where a
	// MeetDemand (or a parking worker) could erase a signal raised
	// concurrently by another thief's failed sweep.
	demand atomic.Int32
	// injectTop mirrors inject's heaviest pending weight, 0 when nothing
	// is queued: written under injectMu whenever it changes, read without
	// it by every pending check (see ServeInjected).
	injectTop atomic.Int32
	timeAcct  atomic.Bool // busy/idle time accounting enabled
	// quitting is the shutdown edge: set by Close before its wake pass. A
	// worker checks it after winning its park transition (sequentially
	// consistent with Close's store, so a worker that misses the wake pass
	// still observes the flag before blocking) and on every wake.
	//
	//sched:protocol quitflag
	//sched:state running = false
	//sched:state quitting = true
	//sched:trans any -> quitting
	quitting atomic.Bool
	wg       sync.WaitGroup
	// rootCalls and frames are the free lists of the per-Run scratch frame
	// and of the loop layer's per-loop one (see TakeFrame), sized by
	// ReserveFrames. Side by side: the same caller takes and gives both.
	rootCalls freeList[rootCall]
	frames    freeList[byte]
	// runs counts the Runs in flight. With at most one (solo), the caller
	// borrows and idle workers spin; see borrow and spin.
	runs atomic.Int64
	// lockThreads records WithOSThreads: each worker runs on its own
	// locked OS thread, so Run never borrows an identity (the borrowed
	// work would run on the caller's thread). Immutable.
	lockThreads bool

	loopsMu sync.Mutex // serializes Register/Unregister, snapshot reuse and LiveLoops
	// loops is the published registry snapshot, read lock-free by idle
	// probes under their hazard slot (see Worker.hazard); nil when empty.
	loops atomic.Pointer[loopSnap]
	// spares are retired snapshots, reused once no probe holds them;
	// guarded by loopsMu. A hazard slot names one snapshot, and the
	// registration of a first loop takes a spare it does not give back
	// until that loop's unregistration, so with two spares more than
	// there are workers some spare is always free.
	spares     []*loopSnap
	nextLoopID atomic.Uint64 // per-pool loop IDs for attribution
}

// LoopEntry is one registered loop plus the fairness metadata the steal
// protocol keys on: a pool-unique ID (registration order, the tiebreak),
// a relative weight, and the count of successful steal-protocol entries
// served to the loop so far. Idle workers probe live entries in ascending
// served/weight order, so a freshly registered small loop (served = 0)
// outranks a giant loop that has already absorbed many workers — the
// deficit-weighted round-robin that keeps one loop from starving the rest.
//
// Every HybridLoop embeds one; the fields are written by the
// registration that publishes the entry. A loop is registered at most once
// at a time; a recycled descriptor registers again for its next run, once
// no probe still holds it (see UnregisterLoop and LoopHeld).
type LoopEntry struct {
	l      HybridLoop
	id     uint64
	weight int32
	served atomic.Int64
}

func (e *LoopEntry) entry() *LoopEntry { return e }

// loopSnap is one registry snapshot, immutable while published. Registries
// of up to len(inline) loops — every single-tenant program, and a gated
// server's handful of in-flight loops — keep their entries inside the
// snapshot; more go to its spill slice, which it keeps. A replaced
// snapshot is reused for a later publication once no probe holds it (see
// newLoopSnap), so the steady register/unregister round trip allocates
// nothing, however many loops are live.
type loopSnap struct {
	list   []*LoopEntry
	inline [4]*LoopEntry
	spill  []*LoopEntry
}

// newLoopSnap returns a snapshot with room for n entries: a spare one that
// no hazard slot names, when there is one, its spill grown to at least n
// entries if they do not fit inline. Called with loopsMu held.
//
//sched:noalloc
func (p *Pool) newLoopSnap(n int) *loopSnap {
	var s *loopSnap
	for i, x := range p.spares {
		if x != nil && !p.hazarded(x, nil) {
			s, p.spares[i] = x, nil
			s.inline = [len(s.inline)]*LoopEntry{}
			clear(s.spill)
			break
		}
	}
	if s == nil {
		//lint:ignore noalloc every spare is held: a fresh snapshot
		s = &loopSnap{}
	}
	if n <= len(s.inline) {
		s.list = s.inline[:n]
		return s
	}
	if len(s.spill) < n {
		//lint:ignore noalloc the spill grows, doubling, to the most loops live at once
		s.spill = make([]*LoopEntry, 2*n)
	}
	s.list = s.spill[:n]
	return s
}

// lists reports whether the snapshot holds e.
func (s *loopSnap) lists(e *LoopEntry) bool {
	for _, x := range s.list {
		if x == e {
			return true
		}
	}
	return false
}

// LoopInfo is a snapshot of one registered loop's fairness state, for
// observability (per-loop attribution in stats endpoints).
type LoopInfo struct {
	ID     uint64 // registration order, unique per pool
	Weight int    // relative service share
	Served int64  // successful steal-protocol entries routed to the loop
	Live   bool   // whether the loop still advertises stealable work
}

// NewPool creates a pool with p workers (p >= 1) and starts them. seed
// makes victim selection deterministic per worker for reproducible tests;
// pass different seeds for statistically independent runs.
func NewPool(p int, seed uint64) *Pool {
	return newPool(p, seed, false, nil)
}

// NewPoolPlaced is the placement-aware constructor: pl maps workers to
// sockets and both steal paths sweep hierarchically (own socket first,
// larger cross-socket range transfers). A nil placement is the flat
// default. lockThreads locks each worker goroutine to its own OS thread
// (runtime.LockOSThread); on dedicated multicore machines this keeps the
// Go scheduler from migrating workers between threads, which matters when
// the OS pins threads to cores — the setup under which the paper's
// locality results apply.
func NewPoolPlaced(p int, seed uint64, lockThreads bool, pl *Placement) *Pool {
	return newPool(p, seed, lockThreads, pl)
}

func newPool(p int, seed uint64, lockThreads bool, pl *Placement) *Pool {
	if p < 1 {
		panic(fmt.Sprintf("sched: NewPool with p = %d", p))
	}
	pool := &Pool{placement: pl, lockThreads: lockThreads, spares: make([]*loopSnap, p+2)}
	master := rng.NewSplitMix64(seed)
	pool.workers = make([]*Worker, p)
	for i := 0; i < p; i++ {
		pool.workers[i] = &Worker{
			id:     i,
			socket: int32(pl.Socket(i)),
			pool:   pool,
			dq:     deque.New(Task(nil), RangeTask(nil), (*Group)(nil)),
			rng:    rng.NewXoshiro256(master.Next()),
			park:   make(chan struct{}, 1),
		}
	}
	// Precompute each worker's hierarchical victim order: own-socket
	// victims first, then every remote worker, both in ascending-ID order
	// excluding the worker itself. The steal sweep rotates through each
	// list from a uniformly drawn start, so excluding self HERE is what
	// makes the first probe unbiased — the old skip-self-in-rotation sweep
	// first-probed the worker right after w.id twice as often as any other
	// victim (both start == w.id and start == w.id+1 landed on it).
	for _, w := range pool.workers {
		for _, v := range pool.workers {
			if v.id == w.id {
				continue
			}
			if v.socket == w.socket {
				w.localVictims = append(w.localVictims, v)
			} else {
				w.remoteVictims = append(w.remoteVictims, v)
			}
		}
	}
	pool.ReserveFrames(0)
	for _, w := range pool.workers {
		pool.wg.Add(1)
		go func(w *Worker) {
			if lockThreads {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.mainLoop()
		}(w)
	}
	return pool
}

// P returns the number of workers.
func (p *Pool) P() int { return len(p.workers) }

// Worker returns worker i (for tests and instrumentation).
func (p *Pool) Worker(i int) *Worker { return p.workers[i] }

// Close shuts the pool down. Close and Run are mutually exclusive under
// the injection lock: a Run that wins the race has its root executed
// during the workers' final drain, and a Run that loses panics — it can
// never be stranded with an enqueued-but-never-run root.
func (p *Pool) Close() {
	p.injectMu.Lock()
	if p.closed {
		p.injectMu.Unlock()
		return
	}
	p.closed = true
	p.injectMu.Unlock()
	p.quitting.Store(true)
	// One wake pass suffices: a worker this pass observes active (or mid-
	// announcement) either parks after it — in which case its pre-block
	// quitting check, sequentially consistent with the store above, sees
	// the shutdown — or finds work and re-checks quitting on its next wake.
	for _, w := range p.workers {
		w.wake()
	}
	p.wg.Wait()
}

// SetTimeAccounting enables (or disables) per-worker busy/idle time
// accounting. Off by default: with it off the scheduler reads the clock
// only to bound the idle spin of a pool with one caller (see spin); with
// it on, the monotonic clock is also read once per busy↔idle transition —
// a burst of consecutive tasks costs two reads total, so even
// fine-grained loops see no per-task overhead. Higher layers that want
// the imbalance signal (the adaptive autotuner, Stats consumers) turn it
// on at pool construction.
func (p *Pool) SetTimeAccounting(on bool) { p.timeAcct.Store(on) }

// TimeAccounting reports whether busy/idle time accounting is enabled.
func (p *Pool) TimeAccounting() bool { return p.timeAcct.Load() }

// Stats returns aggregate scheduler counters.
//
//sched:noalloc
func (p *Pool) Stats() Stats {
	var s Stats
	for _, w := range p.workers {
		s.Tasks += w.tasks.Load()
		s.Steals += w.steals.Load()
		s.FailedSteals += w.failedSteals.Load()
		s.LoopEntries += w.loopEntries.Load()
		s.RangeSteals += w.rangeSteals.Load()
		s.RemoteSteals += w.remoteSteals.Load()
		s.RemoteRangeSteals += w.remoteRangeSteals.Load()
		s.Parks += w.parks.Load()
		s.BusyNanos += w.busyNanos.Load()
		s.IdleNanos += w.idleNanos.Load()
	}
	return s
}

// ResetStats zeroes all scheduler counters.
func (p *Pool) ResetStats() {
	for _, w := range p.workers {
		w.tasks.Store(0)
		w.steals.Store(0)
		w.failedSteals.Store(0)
		w.loopEntries.Store(0)
		w.rangeSteals.Store(0)
		w.remoteSteals.Store(0)
		w.remoteRangeSteals.Store(0)
		w.parks.Store(0)
		w.busyNanos.Store(0)
		w.idleNanos.Store(0)
	}
}

// PerWorker snapshots every worker's counters, indexed by worker ID, for
// per-worker attribution (the metrics plane's worker-labeled series).
// Reads are individually atomic, not mutually consistent — monitoring
// semantics, same as Stats.
func (p *Pool) PerWorker() []Stats {
	out := make([]Stats, len(p.workers))
	for i, w := range p.workers {
		out[i] = Stats{
			Tasks:             w.tasks.Load(),
			Steals:            w.steals.Load(),
			FailedSteals:      w.failedSteals.Load(),
			LoopEntries:       w.loopEntries.Load(),
			RangeSteals:       w.rangeSteals.Load(),
			RemoteSteals:      w.remoteSteals.Load(),
			RemoteRangeSteals: w.remoteRangeSteals.Load(),
			Parks:             w.parks.Load(),
			BusyNanos:         w.busyNanos.Load(),
			IdleNanos:         w.idleNanos.Load(),
		}
	}
	return out
}

// ParkedWorkers returns the number of workers currently announced as
// parking or parked — the idle-capacity gauge.
func (p *Pool) ParkedWorkers() int { return int(p.nparked.Load()) }

// Placement returns the pool's worker→socket placement, or nil for the
// flat default.
func (p *Pool) Placement() *Placement { return p.placement }

// rootCall is the reusable frame of one Pool.Run: the submitted root, the
// completion signal, and the panic carried back to the caller. The task
// closure and the done channel are built once per frame and recycled
// through the pool's free list, so a steady state of external
// submissions — the wake-to-first-task path — allocates nothing per Run.
type rootCall struct {
	root   func(w *Worker)
	tp     *taskPanic
	weight int32 // the root's loop weight (see RunWeighted)
	// done is the frame's capacity-1 channel: the completion signal on the
	// submit path (the worker's send never blocks), and the borrower's own
	// park channel on the borrow path (see Worker.guest).
	done chan struct{}
	task Task // pre-bound closure over this frame
}

// newRootCall builds a Run frame and binds its task.
func newRootCall() *rootCall {
	rc := &rootCall{done: make(chan struct{}, 1)}
	rc.task = func(w *Worker) {
		rc.call(w)
		weight := rc.weight
		// The send is the frame's last touch by the worker; the receive in
		// Run orders everything before it, so the caller's reads of rc.tp
		// and its reset-and-recycle are safe.
		rc.done <- struct{}{}
		// The send made the blocked caller runnable in this P's next slot.
		// Hand it the P now, unless that would stall a loop of at least its
		// weight that this worker interrupted (see Worker.held).
		if weight > w.held {
			runtime.Gosched()
		}
	}
	return rc
}

// call runs the frame's root on w, capturing a panic into the frame.
func (rc *rootCall) call(w *Worker) {
	defer func() {
		if r := recover(); r != nil {
			rc.tp = &taskPanic{value: r, stack: debug.Stack()}
		}
	}()
	rc.root(w)
}

// Run executes root and blocks until it (and everything it waited for)
// returns. It is the entry point for code outside the pool. When it is
// the only Run in flight, a worker is parked and the workers are not
// locked to OS threads, the caller borrows that worker's identity and
// runs root itself (see borrow); otherwise root is submitted to the pool
// and the caller blocks until a worker has run it. The worker that
// finishes a submitted root then yields its P to the caller, unless it
// interrupted a loop for the root (see RunWeighted). A panic inside root
// (including a *TaskPanicError re-raised by a Wait) propagates to the Run
// caller rather than killing a worker. Run on a closed pool panics.
func (p *Pool) Run(root func(w *Worker)) { p.RunWeighted(root, 1) }

// RunWeighted is Run for a root that runs a loop of the given weight
// (its Options.Priority; below 1 selects 1). The weight decides what the
// worker that finishes a submitted root does with its P, which its
// completion signal has just made the blocked caller's next goroutine:
// it yields the P at once when it interrupted nothing for the root, or
// when the weight is strictly higher than that of every loop it
// interrupted; otherwise it keeps the P, because yielding would
// stall that loop's remainder, which only this worker can release. The
// steal protocol's deficit order thus extends to the Go scheduler's P.
func (p *Pool) RunWeighted(root func(w *Worker), weight int) {
	rc := p.rootCalls.get()
	if rc == nil {
		rc = newRootCall()
	}
	rc.root, rc.weight = root, clampWeight(weight)
	p.runs.Add(1)
	if w := p.borrow(); w != nil {
		p.runLent(w, rc)
	} else {
		p.submit(rc.task, rc.weight)
		<-rc.done
	}
	p.runs.Add(-1)
	tp := rc.tp
	rc.root, rc.tp = nil, nil
	p.rootCalls.put(rc)
	if tp != nil {
		if tpe, ok := tp.value.(*TaskPanicError); ok {
			panic(tpe) // already wrapped by a Wait inside the pool
		}
		panic(&TaskPanicError{Value: tp.value, Stack: tp.stack})
	}
}

// solo reports whether at most one Run is in flight: the iterative regime,
// in which a Run borrows and idle workers spin.
func (p *Pool) solo() bool { return p.runs.Load() <= 1 }

// borrow reserves the identity of a parked worker for the calling
// goroutine: one wParked→wLent CAS, after which no wake, notify or direct
// handoff can target the worker (wake treats lent as running) and its
// displaced goroutine stays blocked on w.park without touching the
// identity. The lent identity leaves the parked census — it is working,
// not idle capacity.
//
// It returns nil — Run then submits — in four cases:
//
//   - on a thread-locked pool, where the borrowed work would run on the
//     caller's thread, not the worker's;
//   - when no worker is parked;
//   - once Close has begun, as the submit path is the one Close's final
//     drain accounts for (a Run that loses the race panics);
//   - unless the pool is solo, with this the only Run. A borrowing caller
//     never blocks between its loops, so with several callers the Go
//     scheduler, not the pool's cross-loop fairness, would divide the CPU
//     among them: on serve_mixed a priority-1 batch tenant that borrowed
//     kept a P and ran twenty times its share of loops.
func (p *Pool) borrow() *Worker {
	if !p.solo() || p.lockThreads || p.nparked.Load() == 0 || p.quitting.Load() {
		return nil
	}
	// Fixed order, like submit's handoff scan: an iterative caller keeps
	// borrowing the same identity, so its partitions keep their worker ID.
	for _, w := range p.workers {
		if w.state.Load() == wParked && w.state.CompareAndSwap(wParked, wLent) {
			p.nparked.Add(-1)
			return w
		}
	}
	return nil
}

// runLent runs rc's root on the calling goroutine as w, a borrowed
// identity: its ID, deque, RangeSlot index, RNG and counters. A join
// inside root parks on rc.done, never on w.park, where the displaced
// goroutine is blocked. The run's time is credited to w as busy and
// recorded as lent, so the displaced goroutine does not count it as idle.
func (p *Pool) runLent(w *Worker, rc *rootCall) {
	w.guest = rc.done
	acct := p.timeAcct.Load()
	var start time.Time
	if acct {
		start = time.Now()
	}
	w.tasks.Add(1)
	rc.call(w)
	if acct {
		d := time.Since(start).Nanoseconds()
		w.busyNanos.Add(d)
		w.lentNanos += d
	}
	w.guest = nil
	p.handBack(w)
}

// handBack returns a lent identity to its parked goroutine. The identity
// rejoins the parked census before the wLent→wParked CAS, and the checks
// after it complete the announce-then-sweep handshake for everything a
// wake could only have aimed at this worker while it was lent (such a
// wake was a no-op): pinned tasks, deque leftovers, queued submissions
// and the shutdown edge. A producer that saw lent published its work
// before this CAS, so the checks find it and wake the worker; one that
// sees parked wakes it itself.
func (p *Pool) handBack(w *Worker) {
	w.noteFed()
	w.dq.Clean()
	p.nparked.Add(1)
	w.state.CompareAndSwap(wLent, wParked)
	if w.pinnedN.Load() != 0 || !w.dq.Empty() || p.injectTop.Load() != 0 || p.quitting.Load() {
		w.wake()
	}
}

// submit places a root of the given loop weight on the external injection
// queue and wakes a worker.
// The closed check happens under the same lock Close takes, so a task is
// enqueued iff it precedes the close — in which case the workers' final
// drain executes it (and a submission that instead wins a direct handoff
// below is guaranteed to run by the reserved worker, even across the
// shutdown edge — see mainLoop's handoff handling).
func (p *Pool) submit(t Task, weight int32) {
	// Direct-handoff fast path: on an idle pool, reserve a parked worker
	// with the same wParked→wNotified CAS a wake uses, hand it the task
	// through its handoff slot, and deliver the token. The task bypasses
	// the inject queue entirely, and the reserved worker runs it straight
	// off the wake — no injectMu on either side, no deque/steal sweep
	// before the first instruction of the task. This is the dominant term
	// of the wake-to-first-task latency. The CAS makes the reservation
	// exclusive: a concurrent notify that loses the race observes
	// wNotified and treats the wake as already delivered, and the worker
	// cannot retract past wParked without consuming the token (see
	// mainLoop). Skipped when injected tasks are already queued so a
	// burst drains roughly in order.
	if p.injectTop.Load() == 0 && p.nparked.Load() > 0 {
		// Fixed-order scan, not the round-robin cursor: on an idle pool
		// every submission reuses the same (cache-warm) worker, and the
		// shared cursor RMW stays off the latency path. Fairness is a
		// non-issue — a parked worker has nothing to be unfair about.
		for _, w := range p.workers {
			if w.state.Load() == wParked && w.state.CompareAndSwap(wParked, wNotified) {
				// The slot write is ordered before the token send; the
				// worker reads it only after the receive.
				w.handoff = t
				w.park <- struct{}{} // capacity 1, reservation is exclusive: never blocks
				return
			}
		}
	}
	p.injectMu.Lock()
	if p.closed {
		p.injectMu.Unlock()
		panic("sched: Run on closed pool")
	}
	p.inject.push(t, weight)
	p.publishTop()
	p.injectMu.Unlock()
	p.notify()
}

// InjectPending reports whether external submissions are queued. One
// uncontended atomic load; loop strategies poll it at chunk boundaries to
// decide whether to call ServeInjected.
func (p *Pool) InjectPending() bool { return p.injectTop.Load() != 0 }

// maxInjectHelpDepth bounds the recursion of loops helping loops: a
// worker that picks up an injected loop root mid-chunk may, inside that
// loop, pick up another. The bound keeps a flood of submissions from
// growing one worker's stack without limit; submissions beyond it simply
// wait for a worker at lower depth (or a parked one).
const maxInjectHelpDepth = 8

// ServeInjected is the poll point a loop of the given weight (its
// Options.Priority) offers the external submission queue between two of
// its windows. A worker deep in a loop's partition does not return to
// runOne until the partition drains, so without it a newly submitted
// loop's root would wait that long. Pending roots share the worker with
// the loop by weighted round robin. With h the loop's weight and r the
// heaviest pending root's:
//
//   - r > h: w runs up to ⌊r/h⌋ roots heavier than h back to back,
//     heaviest first, before the loop's next window;
//   - r ≤ h: w runs that root only on every ⌈h/r⌉-th such poll, so with
//     equal weights it runs one per poll, and a lighter root still starts
//     within ⌈h/r⌉ polls of an endless heavier loop.
//
// polls is that count, kept in the loop's own frame: pass 0 at the loop's
// start and then what the previous call returned. Each root runs inline on
// w. The interrupted loop's published range stays stealable meanwhile, so
// no work is lost and the loop keeps load balancing underneath. w holds
// the loop's weight for the detour, so it yields its P to a detour root's
// caller only if that root's loop is heavier (see RunWeighted). Nothing
// runs when w is already maxInjectHelpDepth detours deep.
func (p *Pool) ServeInjected(w *Worker, weight, polls int) int {
	r := p.injectTop.Load()
	if r == 0 || w.injectDepth >= maxInjectHelpDepth {
		return polls
	}
	h := clampWeight(weight)
	if r > h {
		for n := r / h; n > 0 && p.serveOne(w, h, h+1); n-- {
		}
		return polls
	}
	if polls++; polls < int((h+r-1)/r) {
		return polls
	}
	p.serveOne(w, h, 1)
	return 0
}

// serveOne runs the heaviest pending root, if its weight is at least min,
// inline on w, which holds the interrupted loop's weight for the detour.
// It reports whether a root ran.
func (p *Pool) serveOne(w *Worker, weight, min int32) bool {
	t, ok, more := p.takeInjected(min)
	if !ok {
		return false
	}
	if more {
		p.notify()
	}
	held := w.held
	w.held = max(held, weight)
	w.injectDepth++
	defer func() { w.injectDepth--; w.held = held }()
	w.run(t)
	return true
}

// takeInjected removes the oldest of the heaviest externally submitted
// roots, if its weight is at least min (1 takes any). more reports whether
// further roots remain (for wake chaining).
func (p *Pool) takeInjected(min int32) (t Task, ok, more bool) {
	// Empty-queue fast path: one atomic load instead of a mutex round
	// trip. A submission concurrent with the load is covered by the usual
	// handshake — the producer publishes injectTop (under the lock) before
	// its notify, so a sweeper that misses it here is woken into a sweep
	// ordered after the publication.
	if p.injectTop.Load() < min {
		return nil, false, false
	}
	p.injectMu.Lock()
	t, ok = p.inject.pop(min)
	p.publishTop()
	more = p.inject.len() > 0
	p.injectMu.Unlock()
	return t, ok, more
}

// publishTop mirrors the ring's heaviest weight into injectTop, storing
// only on a change. Called with injectMu held.
func (p *Pool) publishTop() {
	if top := p.inject.top; top != p.injectTop.Load() {
		p.injectTop.Store(top)
	}
}

// taskRing is the queue of injected roots: a circular buffer in arrival
// order, each root beside its loop's weight. pop takes the oldest of the
// heaviest. top and ntop, the heaviest queued weight and how many roots
// carry it, make that the plain FIFO pop whenever the oldest root is among
// the heaviest, which is always the case when every root has one weight.
// Popped slots are zeroed so consumed tasks do not linger in the buffer.
// It grows by doubling when full; capacity is always a power of two.
type taskRing struct {
	buf  []queuedRoot
	head int   // index of the oldest root
	n    int   // number of queued roots
	top  int32 // heaviest queued weight, 0 when empty
	ntop int   // queued roots of weight top
}

// queuedRoot is one injected root beside its loop's weight.
type queuedRoot struct {
	t      Task
	weight int32
}

func (r *taskRing) len() int { return r.n }

func (r *taskRing) push(t Task, weight int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = queuedRoot{t, weight}
	r.n++
	r.count(weight)
}

// count enters one queued root of the given weight into top and ntop.
func (r *taskRing) count(weight int32) {
	switch {
	case weight > r.top:
		r.top, r.ntop = weight, 1
	case weight == r.top:
		r.ntop++
	}
}

// pop removes the oldest of the heaviest queued roots, if their weight is
// at least min. The lighter roots queued before it each move up one slot,
// so every weight stays FIFO.
func (r *taskRing) pop(min int32) (Task, bool) {
	if r.n == 0 || r.top < min {
		return nil, false
	}
	mask := len(r.buf) - 1
	k := 0
	for r.buf[(r.head+k)&mask].weight != r.top {
		k++
	}
	t := r.buf[(r.head+k)&mask].t
	for ; k > 0; k-- {
		r.buf[(r.head+k)&mask] = r.buf[(r.head+k-1)&mask]
	}
	r.buf[r.head] = queuedRoot{} // release the slot: no retention of popped tasks
	r.head = (r.head + 1) & mask
	r.n--
	if r.ntop--; r.ntop == 0 {
		// The last of the heaviest left. With a single weight the ring is
		// now empty; otherwise rescan what remains.
		r.top = 0
		for i := 0; i < r.n; i++ {
			r.count(r.buf[(r.head+i)&mask].weight)
		}
	}
	return t, true
}

func (r *taskRing) grow() {
	cap := len(r.buf) * 2
	if cap == 0 {
		cap = 16
	}
	buf := make([]queuedRoot, cap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// notify wakes ONE parked worker, round-robin, after new work was made
// visible — see the package comment's wake-policy section for why this
// (plus wake chaining) cannot lose a wakeup. A worker already in the
// notified state counts as woken: the pending wake forces a full sweep
// that is ordered after this producer's publication.
//
//sched:noalloc
func (p *Pool) notify() {
	if p.nparked.Load() == 0 {
		return
	}
	ws := p.workers
	n := uint32(len(ws))
	start := p.wakeCursor.Add(1)
	for k := uint32(0); k < n; k++ {
		if ws[(start+k)%n].wake() {
			return
		}
	}
	// No worker was observed parked: every announcer either found work or
	// will announce (and final-sweep) after our publication. Nothing to do.
}

// Notify wakes one parked worker. Runtime components that discover
// surplus work outside the pool's own paths (e.g. the hybrid loop after a
// successful claim with partitions still unclaimed) chain wakeups with it.
func (p *Pool) Notify() { p.notify() }

// WakeAll delivers a wake token to every parked worker. Cancellation uses
// it: tripping a loop's token is not "new work" in the sense the
// round-robin notify distributes, but a pool-wide event every parked
// worker should observe promptly — a woken worker's sweep finds the dying
// loop through the registry and helps drain its remaining claims instead
// of leaving the whole drain to the worker blocked in Wait. Workers that
// find nothing simply re-park; a spurious WakeAll costs one sweep each.
func (p *Pool) WakeAll() {
	if p.nparked.Load() == 0 {
		return
	}
	for _, w := range p.workers {
		w.wake()
	}
}

// Demand reports whether there is evidence of thief demand: a worker is
// parked (idle capacity with nothing to run) or some worker's last steal
// sweep covered every victim without finding work and it is still hungry.
// It costs one or two uncontended atomic loads, cheap enough for a loop
// owner to poll once per executed chunk — the demand signal that drives
// lazy range splitting: with no demand the owner keeps consuming its
// published range in large sequential grains and the loop pays zero
// splitting overhead.
func (p *Pool) Demand() bool {
	return p.nparked.Load() > 0 || p.demand.Load() > 0
}

// MeetDemand responds to a Demand observation by waking one parked worker
// so the surplus the caller is advertising (a published range descriptor
// with more than a chunk left) gets a thief routed to it. Recruitment then
// spreads by the usual wake chaining — a thief that steals half and
// observes the victim still has surplus wakes the next parked worker.
//
// Unlike the old pool-wide demand flag, there is nothing to clear here:
// the demand count is exact per-worker accounting that retires on its own
// when a hungry worker acquires work or parks. The old Load()!=0 →
// Store(0) clear was check-then-act — a hint raised by a concurrent
// failed-steal sweep between the load and the store was silently erased
// before any owner advertised surplus (see TestMeetDemandKeepsConcurrentDemand).
func (p *Pool) MeetDemand() {
	p.notify()
}

// DemandCount returns the number of currently hungry workers (exact
// accounting; see Demand). Exposed for observability and tests.
func (p *Pool) DemandCount() int { return int(p.demand.Load()) }

// notifyWorker wakes one specific worker — required for pinned tasks,
// which only their target worker may execute, so a round-robin wake of
// some other worker would strand them. The same announce-then-sweep
// handshake applies, per worker: if w is not observed parked, its next
// parking announcement is ordered after the task's publication and the
// final sweep finds it.
func (p *Pool) notifyWorker(w *Worker) {
	w.wake()
}

// RegisterLoopWeighted enrolls a live hybrid loop in the steal protocol
// and wakes one parked worker; further participants are recruited by wake
// chaining as claims observe unclaimed partitions. Idle workers probe live
// loops in ascending served/weight order, so a loop with weight 2 is
// entitled to roughly twice the steal-protocol entries of a weight-1 loop
// under contention. Weights below 1 are clamped to 1. The loop's embedded
// LoopEntry is the registry record, and the published snapshot is reused
// when one is spare, so registering usually allocates nothing.
//
//sched:noalloc
func (p *Pool) RegisterLoopWeighted(l HybridLoop, weight int) {
	e := l.entry()
	p.loopsMu.Lock()
	e.l, e.id, e.weight = l, p.nextLoopID.Add(1), clampWeight(weight)
	e.served.Store(0)
	old := p.loops.Load()
	var n int
	if old != nil {
		n = len(old.list)
	}
	s := p.newLoopSnap(n + 1)
	if old != nil {
		copy(s.list, old.list)
	}
	s.list[n] = e
	p.loops.Store(s)
	if old != nil {
		p.retire(old)
	}
	p.loopsMu.Unlock()
	p.notify()
}

// UnregisterLoop removes a hybrid loop from the steal protocol registry
// and reports whether an idle probe may still hold it, as LoopHeld does.
// An owner that wants to reuse l's descriptor for another loop may do so
// only once l is not held. Removing the last loop publishes nil rather
// than an empty snapshot. No demand cleanup is needed on the last
// unregister: the demand count is exact per-worker accounting that a
// hungry worker retires itself when it finds work or parks, so it cannot
// go stale across loops.
//
//sched:noalloc
func (p *Pool) UnregisterLoop(l HybridLoop) (held bool) {
	e := l.entry()
	p.loopsMu.Lock()
	defer p.loopsMu.Unlock()
	old := p.loops.Load()
	if old == nil || !old.lists(e) {
		return false
	}
	var s *loopSnap
	if n := len(old.list); n > 1 {
		s = p.newLoopSnap(n - 1)
		i := 0
		for _, x := range old.list {
			if x != e {
				s.list[i] = x
				i++
			}
		}
	}
	p.loops.Store(s)
	p.retire(old)
	return p.hazarded(nil, e)
}

// LoopHeld reports whether an idle probe may still hold the unregistered
// loop l: whether some worker's hazard slot names a snapshot that lists l,
// so that worker may yet call l's Live or TrySteal. A probe holds its
// snapshot for tens of nanoseconds unless it runs a body, so an owner that
// finds its descriptor held at UnregisterLoop asks again before reusing it.
//
// While no Run is in flight, LoopHeld re-scans for up to parkSpin before
// it answers true, yielding its P between scans: a joiner that spins
// returns while the thief that ran the loop's last piece is still inside
// its probe, in the probe's last few instructions. With Runs in flight it
// scans once, because there a worker holds its snapshot while it runs
// another loop's bodies, and waiting would stall every acquire behind it.
//
//sched:noalloc
func (p *Pool) LoopHeld(l HybridLoop) bool {
	for start := time.Now(); ; runtime.Gosched() {
		p.loopsMu.Lock()
		held := p.hazarded(nil, l.entry())
		p.loopsMu.Unlock()
		if !held || p.runs.Load() != 0 || time.Since(start) >= parkSpin {
			return held
		}
	}
}

// retire keeps old, just replaced by a publication, as a spare snapshot
// when a spare slot is free; newLoopSnap reuses it once no probe holds it.
// Called with loopsMu held.
//
//sched:noalloc
func (p *Pool) retire(old *loopSnap) {
	for i, x := range p.spares {
		if x == nil {
			p.spares[i] = old
			return
		}
	}
}

// hazarded is one O(P) scan of the workers' hazard slots: it reports
// whether a slot names s or a snapshot listing e (either may be nil).
// Called with loopsMu held, which orders it against every rewrite of a
// snapshot, so the lists it reads are stable.
//
// A probe publishes its snapshot before touching any entry and validates
// it by re-loading p.loops (see Worker.hazard). Every publication that
// unpublished s, or removed e, precedes this scan, so a probe whose
// hazard store the scan missed re-loads a later snapshot and retries: it
// cannot reach e, nor s's storage once reused.
//
//sched:noalloc
func (p *Pool) hazarded(s *loopSnap, e *LoopEntry) bool {
	for _, w := range p.workers {
		h := w.hazard.Load()
		if h != nil && (h == s || (e != nil && h.lists(e))) {
			return true
		}
	}
	return false
}

// LiveLoops snapshots the fairness state of every registered loop, for
// per-loop attribution in stats/trace consumers (the examples/server
// /stats endpoint renders it). Ordered by registration. It reads the
// registry under loopsMu, as a non-worker caller has no hazard slot: no
// snapshot is rewritten and no entry reregistered while it holds the lock.
func (p *Pool) LiveLoops() []LoopInfo {
	p.loopsMu.Lock()
	defer p.loopsMu.Unlock()
	var ls []*LoopEntry
	if s := p.loops.Load(); s != nil {
		ls = s.list
	}
	out := make([]LoopInfo, len(ls))
	for i, e := range ls {
		out[i] = LoopInfo{
			ID:     e.id,
			Weight: int(e.weight),
			Served: e.served.Load(),
			Live:   e.l.Live(),
		}
	}
	return out
}

// LoopsRegistered returns the number of loops ever registered with this
// pool (the current value of the per-pool loop ID counter).
func (p *Pool) LoopsRegistered() int64 { return int64(p.nextLoopID.Load()) }

// Worker park states: the single word the futex-style park/wake protocol
// runs on. Transitions:
//
//	active     → parking    (owner announces intent, then final-sweeps)
//	parking    → parked     (owner CAS, mainLoop: the sweep found nothing, block)
//	parking    → waitparked (owner CAS, Wait: the same, inside a join)
//	parking    → notified   (waker CAS: wake landed during the announcement —
//	                         the owner's failed park CAS consumes it with no
//	                         channel traffic at all)
//	parked     → notified   (waker CAS + one channel send to unblock the owner)
//	waitparked → notified   (likewise, on the parker's own channel)
//	parked     → lent       (Run borrows the idle identity: see Pool.borrow)
//	lent       → parked     (the borrower hands it back: see Pool.handBack)
//	*          → active     (owner store on every wake/retract path)
//	*          → lent       (the borrower's store on its wake/retract paths)
//
// Only the transitions out of parked and waitparked touch a capacity-1
// token channel, and the notified state admits at most one in-flight
// send, so the send never blocks and no token can go stale. The
// uncontended wake is one CAS plus one buffered-channel send; a wake that
// observes active, lent or notified is a no-op.
//
// Only an idle worker (parked, inside mainLoop) can be borrowed or handed
// a submission; a worker parked inside Wait has a join to resume, so it
// parks as waitparked, and a borrower joining inside its Run parks as
// waitparked too — on its own channel (see Worker.guest), since the
// displaced goroutine is still blocked on w.park.
const (
	wActive uint32 = iota
	wParking
	wParked
	wNotified
	wLent
	wWaitParked
)

// wake delivers a wake to w. It returns true if w was parked or parking —
// the wake was delivered, or one was already pending, and w's next full
// sweep is ordered after the caller's work publication — and false if w
// is active or lent (running; it will announce-then-sweep before ever
// blocking, or be handed back through handBack's checks).
//
//sched:noalloc
func (w *Worker) wake() bool {
	for {
		switch w.state.Load() {
		case wActive, wLent:
			return false
		case wNotified:
			return true // pending wake: w is committed to a full re-sweep
		case wParking:
			if w.state.CompareAndSwap(wParking, wNotified) {
				return true // consumed by the owner's failed park CAS
			}
		case wParked:
			if w.state.CompareAndSwap(wParked, wNotified) {
				w.park <- struct{}{} // capacity 1, sole sender: never blocks
				return true
			}
		case wWaitParked:
			if w.state.CompareAndSwap(wWaitParked, wNotified) {
				// The parker wrote guest before announcing and does not
				// touch it while blocked, so the CAS orders this read.
				w.parkChan() <- struct{}{}
				return true
			}
		}
	}
}

// parkChan is the channel the identity's current holder blocks on inside
// Wait: the borrower's own channel while the identity is lent, else the
// worker's.
func (w *Worker) parkChan() chan struct{} {
	if w.guest != nil {
		return w.guest
	}
	return w.park
}

// Worker is a surrogate of a processing core (Section II): a goroutine
// with its own deque participating in randomized work stealing.
//
// Workers are allocated individually but land in the same heap size
// class, so the struct is kept at a cache-line multiple (checked by
// schedlint's cacheline analyzer; pad it if a field change breaks that)
// to keep one worker's hot counters —
// tasks/steals are bumped on every executed task — from sharing a
// boundary line with a neighbor's.
//
//sched:cacheline
type Worker struct {
	id     int
	socket int32 // placement socket housing this worker (0 when flat)
	// injectDepth is the worker's current nesting depth of inline
	// ServeInjected detours: roots it runs at a loop's poll point, each
	// on top of the loop it interrupted. Private to the identity's holder.
	injectDepth int32
	// held is the highest weight of the loops the identity's holder would
	// stall by giving up its P: those it interrupted for a ServeInjected
	// detour. 0 at the top of mainLoop. A submitted root finished on this
	// worker yields the P to its caller only when its own weight is higher
	// (see RunWeighted), which is how a root served ahead of a lighter
	// loop by the weighted round robin hands its caller the P at once.
	// Private to the identity's holder.
	held int32
	pool *Pool
	dq   *deque.Deque
	rng  *rng.Xoshiro256
	// localVictims/remoteVictims are the precomputed hierarchical victim
	// lists: every other worker on this worker's socket, then every worker
	// on a remote socket (ascending IDs, self excluded). Immutable after
	// pool construction. With a flat placement remoteVictims is empty and
	// localVictims holds all P−1 others.
	localVictims  []*Worker
	remoteVictims []*Worker
	park          chan struct{} // capacity-1 unblock channel of the worker's own goroutine
	// guest is the borrower's park channel while the identity is lent
	// (Pool.runLent), nil otherwise. Written only by the identity's
	// holder; read by a waker after its waitparked→notified CAS.
	guest chan struct{}
	// lentNanos is the time the identity spent lent since its goroutine
	// parked (time accounting only): the goroutine subtracts it from its
	// parked interval on wake, since a borrower was busy as this worker.
	// Written by borrowers, read by the woken goroutine; the state word's
	// lent→parked→notified chain orders the accesses.
	lentNanos int64
	// state is the futex-style parking word; the spec below formalizes
	// the narrative protocol at wake, and schedlint's protocol analyzer
	// checks every atomic op on this field against it module-wide.
	//
	//sched:protocol parkword
	//sched:state active = wActive
	//sched:state parking = wParking
	//sched:state parked = wParked
	//sched:state notified = wNotified
	//sched:state lent = wLent
	//sched:state waitparked = wWaitParked
	//sched:trans any -> parking
	//sched:trans parking -> parked
	//sched:trans parking -> waitparked
	//sched:trans parking -> notified
	//sched:trans parked -> notified
	//sched:trans waitparked -> notified
	//sched:trans parked -> active
	//sched:trans parked -> lent
	//sched:trans lent -> parked
	//sched:trans any -> active
	//sched:trans any -> lent
	state atomic.Uint32 // see the w* constants and wake
	// hungry marks a worker whose last steal sweep found nothing and that
	// has not yet acquired work or parked; it mirrors one unit of the
	// pool's demand count. Private to the identity's holder (the worker's
	// goroutine, or a borrower); the shared signal is Pool.demand.
	hungry bool
	// handoff carries a task delivered by Pool.submit's direct-handoff
	// fast path. Plain field: a producer writes it only between winning
	// the exclusive wParked→wNotified reservation CAS and its token send,
	// and the worker reads it only after receiving that token (or on
	// paths where no reservation can have happened), so the channel
	// orders every cross-goroutine access.
	handoff Task

	pinnedMu   sync.Mutex
	pinned     []spawned    // worker-targeted tasks; FIFO, not stealable
	pinnedHead int          // consumed prefix of pinned (slots nil'ed)
	pinnedN    atomic.Int32 // queued pinned tasks; lets runOne skip the lock

	tasks        atomic.Int64
	steals       atomic.Int64
	failedSteals atomic.Int64
	loopEntries  atomic.Int64
	rangeSteals  atomic.Int64
	// remoteSteals/remoteRangeSteals count the cross-socket subsets of
	// steals/rangeSteals (zero with a flat placement); local counts are the
	// differences, so the pair reconciles by construction.
	remoteSteals      atomic.Int64
	remoteRangeSteals atomic.Int64
	parks             atomic.Int64 // committed park transitions (blocking slow path only)
	busyNanos         atomic.Int64 // time in busy bursts (timeAcct only)
	idleNanos         atomic.Int64 // time parked (timeAcct only)
	// hazard is the registry snapshot this worker's current loop probe
	// reads, published before the probe touches any entry and cleared
	// after (tryLoopProtocol). Pool.hazarded scans every worker's slot:
	// an owner reuses a loop descriptor, or a snapshot's storage, only
	// when no slot names a snapshot that lists or is it.
	//
	//sched:protocol hazard
	//sched:state clear = nil
	//sched:state held = dyn
	//sched:trans any -> held
	//sched:trans any -> clear
	hazard atomic.Pointer[loopSnap]
	_      [48]byte // to a whole number of cache lines
}

// NoteRangeSteal records one successful steal-half of a published range
// descriptor. Called by the loop strategies (internal/loop), which own
// the steal-half protocol; the counter lives here so Stats aggregates it
// with the other scheduling counters. remote marks a cross-socket
// transfer (thief and victim on different placement sockets).
// NoteLoopEntry records w's entry into a loop through the steal protocol
// (Stats.LoopEntries). The loop strategies call it at the entry itself —
// a thief's first successful claim or steal-half, where they trace
// StealEntry — so the count is in place before the thief's work can
// release the loop's join. The loop's served count, which only orders
// probes, is added by the probe after the entry: a thief's write to the
// loop's descriptor at the claim would delay the owner's next claims.
func (w *Worker) NoteLoopEntry() { w.loopEntries.Add(1) }

func (w *Worker) NoteRangeSteal(remote bool) {
	w.rangeSteals.Add(1)
	if remote {
		w.remoteRangeSteals.Add(1)
	}
}

// noteHungry registers this worker's unmet demand after a failed full
// steal sweep. Idempotent per worker: repeated failed sweeps contribute
// one unit until the worker is fed or parks, so the demand count is an
// exact census of hungry workers, never a sticky flag.
func (w *Worker) noteHungry() {
	if !w.hungry {
		w.hungry = true
		w.pool.demand.Add(1)
	}
}

// noteFed retires this worker's demand contribution: called when the
// worker acquires work, and when it parks (from then on its idleness is
// represented by nparked, which Demand() checks first — the park-time
// retirement only ever removes this worker's own unit, so other live
// loops' hungry thieves keep the demand signal raised; the old pool-wide
// flag clear wiped theirs too).
func (w *Worker) noteFed() {
	if w.hungry {
		w.hungry = false
		w.pool.demand.Add(-1)
	}
}

// spawned is the deque/pinned-queue element: the task function plus its
// join group. Panic capture and the group Done happen in runSpawned, so
// enqueuing a task requires no closure allocation. Exactly one of fn/rt
// is set; rt carries its iteration range in lo/hi.
type spawned struct {
	fn     Task
	rt     RangeTask
	g      *Group
	lo, hi int
}

// RangeTask is a task parameterized by an iteration range. SpawnRange
// stores the range inline in the deque slot, so loop lowerings that spawn
// one task per split need no per-spawn closure capturing the bounds —
// the allocation that used to dominate fine-grained loop overhead.
type RangeTask func(w *Worker, lo, hi int)

// packRange packs lo and hi into one non-zero int64 deque word, or
// ok == false if either bound needs more than 32 bits. hi > lo guarantees
// the packed word is non-zero, which is what distinguishes a RangeTask
// element from a plain Task element (packed == 0) in the deque.
func packRange(lo, hi int) (int64, bool) {
	if int(int32(lo)) != lo || int(int32(hi)) != hi {
		return 0, false
	}
	return int64(uint32(lo)) | int64(uint32(hi))<<32, true
}

func unpackRange(ab int64) (lo, hi int) {
	return int(int32(uint32(ab))), int(int32(uint32(ab >> 32)))
}

// decode rebuilds a spawned from the deque's (v, arg, ab) element.
func decode(v, arg any, ab int64) spawned {
	g := arg.(*Group)
	if ab == 0 {
		return spawned{fn: v.(Task), g: g}
	}
	lo, hi := unpackRange(ab)
	return spawned{rt: v.(RangeTask), g: g, lo: lo, hi: hi}
}

// ID returns the worker's ID in [0, P).
func (w *Worker) ID() int { return w.id }

// Pool returns the pool this worker belongs to.
func (w *Worker) Pool() *Pool { return w.pool }

// RNG returns the worker's private random number generator (used by
// strategies that need randomness on the worker's hot path).
func (w *Worker) RNG() *rng.Xoshiro256 { return w.rng }

// Socket returns the placement socket housing this worker (0 when the
// pool has no placement).
func (w *Worker) Socket() int { return int(w.socket) }

// Victims returns the worker's precomputed hierarchical victim lists:
// same-socket workers, then remote-socket workers, both ascending-ID with
// self excluded. The loop strategies use them to sweep published ranges
// in the same socket-local-first order as the deque steal path. Callers
// must not mutate the returned slices.
func (w *Worker) Victims() (local, remote []*Worker) {
	return w.localVictims, w.remoteVictims
}

// Spawn pushes a child task bound to g onto this worker's deque. Spawn
// performs the g.Add(1) itself. If the task panics, the panic is captured
// and re-raised from the Wait call that joins the group (wrapped in a
// TaskPanicError), so a panicking loop body surfaces to the code that
// started the loop instead of killing a scheduler worker.
//
// Spawn does not heap-allocate: the task function and group pointer are
// stored directly in the deque, and the completion/panic bookkeeping runs
// in the executing worker rather than in a per-spawn wrapper closure.
//
//sched:noalloc
func (w *Worker) Spawn(g *Group, t Task) {
	g.Add(1)
	w.dq.PushBottom(t, g, 0)
	w.pool.notify()
}

// SpawnRange is Spawn for a RangeTask over [lo, hi): the bounds travel
// inside the deque slot, so repeated spawns of the same task function over
// different ranges (the shape of every divide-and-conquer loop lowering)
// are allocation-free. Ranges whose bounds exceed 32 bits fall back to a
// heap-allocated wrapper — correct, merely slower, and unreachable for
// any loop this repository runs.
//
//sched:noalloc
func (w *Worker) SpawnRange(g *Group, rt RangeTask, lo, hi int) {
	ab, ok := packRange(lo, hi)
	if !ok {
		// The eager fallback wraps the range in a closure. It is the one
		// deliberate allocation here: reachable only for bounds beyond
		// int32, which no loop in this repository produces.
		//lint:ignore noalloc cold int32-overflow fallback; wrapping closure allocates by design
		w.Spawn(g, func(cw *Worker) { rt(cw, lo, hi) })
		return
	}
	g.Add(1)
	w.dq.PushBottom(rt, g, ab)
	w.pool.notify()
}

// TaskPanicError wraps a panic raised inside a spawned task; Wait
// re-panics with it on the joining worker.
type TaskPanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the worker goroutine that caught the panic.
	Stack []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("sched: task panicked: %v\ntask stack:\n%s", e.Value, e.Stack)
}

// SpawnOn enqueues a task bound to g that only worker id may execute —
// the pinned-work primitive used to model team-based schedulers (OpenMP
// static/dynamic/guided, FastFlow) where every thread enters the parallel
// region itself and chunks are not stealable.
func (p *Pool) SpawnOn(id int, g *Group, t Task) {
	g.Add(1)
	w := p.workers[id]
	w.pinnedMu.Lock()
	w.pinned = append(w.pinned, spawned{fn: t, g: g})
	w.pinnedN.Add(1)
	w.pinnedMu.Unlock()
	p.notifyWorker(w)
}

// takePinned removes one pinned task, FIFO. Owner only. Consumed slots
// are zeroed so executed tasks are not retained by the queue.
func (w *Worker) takePinned() (spawned, bool) {
	// Lock-free common case: pinned work is rare outside the team-based
	// strategies, and runOne probes here on every task, so an empty queue
	// must cost one atomic load, not a mutex round trip. A producer
	// increments pinnedN before its notifyWorker, so the park/notify
	// handshake covers a count published after this check.
	if w.pinnedN.Load() == 0 {
		return spawned{}, false
	}
	w.pinnedMu.Lock()
	defer w.pinnedMu.Unlock()
	if w.pinnedHead == len(w.pinned) {
		if w.pinnedHead > 0 {
			w.pinned = w.pinned[:0]
			w.pinnedHead = 0
		}
		return spawned{}, false
	}
	s := w.pinned[w.pinnedHead]
	w.pinned[w.pinnedHead] = spawned{}
	w.pinnedHead++
	w.pinnedN.Add(-1)
	return s, true
}

// Wait helps execute work until all tasks enrolled in g have completed.
// If any task in the group panicked, Wait re-panics with a
// *TaskPanicError carrying the first captured panic.
//
// A waiter that finds nothing runnable first spins, like an idle worker
// in mainLoop: while the pool is solo it re-sweeps and re-checks g for up
// to parkSpin, yielding its P between sweeps (see spin), so a join whose
// last piece a thief finishes within the window returns without a park
// and a wake. Only then does it park on its own state word, like
// mainLoop. It registers itself in the group's waiter slot first,
// so the Done that finishes the group wakes it directly; and it announces
// through nparked, so ordinary notify/WakeAll traffic (new spawns,
// injected roots, the cancel edge) reaches it too — a parked waiter is
// genuine idle capacity, and any wake sends it through a full runOne
// sweep before it can block again. It parks as waitparked, on parkChan:
// a joining worker is neither borrowable nor a handoff target, and a
// borrower joining inside its Run sleeps on its own channel.
//
//sched:noalloc
func (w *Worker) Wait(g *Group) {
	backoff := 0
	for !g.Finished() {
		if w.runOne() {
			backoff = 0
			continue
		}
		if w.pool.solo() && w.spin(time.Now(), g) {
			continue
		}
		if !g.waiter.CompareAndSwap(nil, w) {
			// Another worker already waits on this group (user code can
			// share a group across Waits): fall back to yielding.
			backoff++
			if backoff < 32 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		// Announce-then-sweep, exactly like mainLoop: after the announce,
		// re-check the join condition and sweep once more. A Done or a
		// work publication that raced the announce is caught here; one
		// that lands after it observes the announce and delivers a wake.
		w.state.Store(wParking)
		w.pool.nparked.Add(1)
		if g.Finished() || w.runOne() {
			g.waiter.CompareAndSwap(w, nil)
			w.unpark()
			continue
		}
		if w.state.CompareAndSwap(wParking, wWaitParked) {
			w.parks.Add(1)
			<-w.parkChan()
		}
		w.unpark()
		g.waiter.CompareAndSwap(w, nil)
	}
	// A worker can leave a join hungry (its final sweeps found nothing
	// because the group finished under it); it is about to resume the
	// task that called Wait, so its demand unit would be stale — retire
	// it here rather than waiting for the next runOne success or park.
	w.noteFed()
	if tp := g.panics.Load(); tp != nil {
		//lint:ignore noalloc cold unwind path: the re-raised panic value must escape
		panic(&TaskPanicError{Value: tp.value, Stack: tp.stack})
	}
}

// run executes a group-less task (external submission) with accounting.
func (w *Worker) run(t Task) {
	w.tasks.Add(1)
	t(w)
}

// runSpawned executes one spawned task: accounting, panic capture into
// the group, and the group Done — the bookkeeping the spawn path used to
// pay two heap-allocated closures for, now performed inline by the
// executing worker.
func (w *Worker) runSpawned(s spawned) {
	w.tasks.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.g.capture(r)
		}
		s.g.Done()
	}()
	if s.rt != nil {
		s.rt(w, s.lo, s.hi)
		return
	}
	s.fn(w)
}

// runOne executes one unit of work if any can be found: own deque first,
// then the hybrid-loop steal protocol, then a random steal, then the
// injection queue. Returns false if nothing was found. A success feeds
// the worker — its demand contribution (if any) is retired.
func (w *Worker) runOne() bool {
	ok := w.findAndRunOne()
	if ok {
		w.noteFed()
	}
	return ok
}

func (w *Worker) findAndRunOne() bool {
	if s, ok := w.takePinned(); ok {
		w.runSpawned(s)
		return true
	}
	if v, arg, ab, ok := w.dq.PopBottom(); ok {
		w.runSpawned(decode(v, arg, ab))
		return true
	}
	if w.tryLoopProtocol() {
		return true
	}
	// External submissions come before the randomized steal sweep: a
	// freshly woken worker on an otherwise idle pool takes the injected
	// root directly instead of first grinding a full failed sweep over
	// P−1 empty deques — the dominant term of the wake-to-first-task
	// latency. Registered loop work still outranks it (above), so a
	// worker helping a live loop is not diverted.
	if t, ok, more := w.pool.takeInjected(1); ok {
		if more {
			// Chain: more external submissions are queued behind this one.
			w.pool.notify()
		}
		w.run(t)
		return true
	}
	if s, ok := w.trySteal(); ok {
		w.runSpawned(s)
		return true
	}
	return false
}

// tryLoopProtocol probes registered hybrid loops per the DoHybridLoop
// steal protocol; returns true if the worker executed loop work. The
// loop itself chains wakeups on successful claims (see Pool.Notify), so
// probing stays wake-silent for workers whose designated partition is
// already claimed.
//
// With more than one live loop registered, probes follow deficit-weighted
// order: the live loop with the smallest served/weight ratio is tried
// first (ties broken by registration order), then the next-smallest, and
// so on. A giant loop that has already absorbed many steal-protocol
// entries therefore cannot monopolize idle workers: a freshly registered
// small or high-weight loop wins the next probe.
//
// The probe holds the snapshot it reads in w's hazard slot for its whole
// duration (see Worker.hazard). A probe nested inside this one — a body
// run by TrySteal that waits on a nested loop — leaves the slot holding
// the current snapshot, not the outer probe's: that one may have been
// reused since, while the current one still lists the loop the outer probe
// entered, as w is among that loop's participants until its body returns.
func (w *Worker) tryLoopProtocol() bool {
	if w.pool.loops.Load() == nil {
		return false
	}
	nested := w.hazard.Load() != nil
	ok := false
	if s := w.protectLoops(); s != nil {
		ok = w.probeLoops(s.list)
	}
	if nested {
		w.protectLoops()
	} else {
		w.hazard.Store(nil)
	}
	return ok
}

// protectLoops publishes the current registry snapshot in w's hazard
// slot and returns it once a re-load of the registry confirms it is still
// current, or nil when the registry is empty. From the confirming re-load
// until the slot is overwritten, no owner reuses the snapshot or any
// descriptor it lists (see Pool.hazarded).
//
//sched:noalloc
func (w *Worker) protectLoops() *loopSnap {
	s := w.pool.loops.Load()
	for s != nil {
		w.hazard.Store(s)
		t := w.pool.loops.Load()
		if t == s {
			return s
		}
		s = t
	}
	return nil
}

// probeLoops runs the steal protocol over a protected snapshot's entries.
func (w *Worker) probeLoops(entries []*LoopEntry) bool {
	n := len(entries)
	switch {
	case n == 1:
		e := entries[0]
		if e.l.Live() && e.l.TrySteal(w) {
			e.served.Add(1)
			return true
		}
		return false
	case n <= 64:
		var tried uint64
		for {
			i := nextLoopIndex(entries, tried)
			if i < 0 {
				return false
			}
			tried |= 1 << uint(i)
			e := entries[i]
			if e.l.TrySteal(w) {
				e.served.Add(1)
				return true
			}
		}
	default:
		// Degenerate registry sizes (admission control keeps real servers
		// far below this): linear order, still correct, no fairness sort.
		for _, e := range entries {
			if e.l.Live() && e.l.TrySteal(w) {
				e.served.Add(1)
				return true
			}
		}
		return false
	}
}

// nextLoopIndex picks the untried live loop with the smallest
// served/weight ratio (deficit-weighted fairness), or -1 if none remain.
// The comparison a.served/a.weight < b.served/b.weight is evaluated by
// cross-multiplication to stay in integers.
func nextLoopIndex(entries []*LoopEntry, tried uint64) int {
	best := -1
	var bestServed, bestWeight int64
	for i, e := range entries {
		if tried&(1<<uint(i)) != 0 || !e.l.Live() {
			continue
		}
		s, wt := e.served.Load(), int64(e.weight)
		if best < 0 || s*bestWeight < bestServed*wt {
			best, bestServed, bestWeight = i, s, wt
		}
	}
	return best
}

// trySteal makes one randomized steal attempt against each other worker,
// sweeping hierarchically: own-socket victims first (a local steal's lines
// come from a shared L3, ~41 cycles per hit), then remote sockets (~515
// cycles, Figure 5). Each tier rotates from a uniformly drawn start over
// its victim list — the lists exclude self by construction, so every
// victim is first-probed with equal probability (the old skip-self
// rotation first-probed worker w.id+1 twice as often). A successful thief
// whose steal snapshot saw further queued work behind the stolen element
// wakes the next parked worker before executing (wake chaining).
func (w *Worker) trySteal() (spawned, bool) {
	if s, ok := w.sweepSteal(w.localVictims, false); ok {
		return s, true
	}
	if s, ok := w.sweepSteal(w.remoteVictims, true); ok {
		return s, true
	}
	w.failedSteals.Add(1)
	// Register the worker's unmet demand (once — repeat failed sweeps by
	// an already-hungry worker touch no shared cacheline): loop owners
	// poll the count and respond by advertising their surplus range. Only
	// worth the shared-line RMW pair (raise here, retire at feed/park)
	// when a registered loop exists to consume the signal — the only
	// Demand() pollers are lazy-range owners, which register for their
	// loop's lifetime. A sweep that races a registration and skips the
	// raise is covered within one poll window: the worker parks almost
	// immediately and nparked, which Demand() checks first, takes over.
	if !w.hungry && w.pool.loops.Load() != nil {
		w.noteHungry()
	}
	return spawned{}, false
}

// sweepSteal probes each victim once in a rotation from a uniformly drawn
// start, returning the first stolen task. remote marks the sweep's tier
// for the distance counters. Wake chaining uses the steal's own snapshot
// (Deque.Steal's more result), not a post-steal Empty() probe: the probe
// could race the victim draining its remainder and read a stale bottom,
// notifying a worker into a guaranteed-failed sweep (and, with live loops
// registered, a phantom demand unit).
func (w *Worker) sweepSteal(victims []*Worker, remote bool) (spawned, bool) {
	n := len(victims)
	if n == 0 {
		return spawned{}, false
	}
	start := 0
	if n > 1 {
		start = w.rng.Intn(n)
	}
	for k := 0; k < n; k++ {
		vd := victims[(start+k)%n].dq
		if v, arg, ab, ok, more := vd.Steal(); ok {
			w.steals.Add(1)
			if remote {
				w.remoteSteals.Add(1)
			}
			if more {
				w.pool.notify()
			}
			return decode(v, arg, ab), true
		}
	}
	return spawned{}, false
}

// parkSpin bounds how long an idle worker or a joiner that found nothing
// keeps sweeping before it announces a park (see spin). Chosen from a
// recorded sweep of {0, 5, 20, 50} µs on iter_fine (DESIGN.md, "The
// caller is a worker"): long enough to span the gap between back-to-back
// fine-grained loops, short enough that an idle pool stops burning CPU
// within tens of µs.
const parkSpin = 20 * time.Microsecond

// spin keeps a worker that found nothing reachable without a wake: it
// re-sweeps until parkSpin has passed since start, calling
// runtime.Gosched between sweeps so a runnable goroutine — a client, or
// the worker that holds a piece of g — always gets the P first, and
// returns true as soon as a sweep ran work or g (nil for an idle worker
// in mainLoop) finished. The next loop of an iterative caller
// usually arrives inside the window, so an idle worker never parks
// between loops and the loop needs no wake to recruit it; and a joiner
// whose last piece a thief is finishing returns without a park, so the
// thief's last Done wakes nobody.
//
// Workers start a spin only while the pool is solo: with several callers,
// spinning workers hold Ps that runnable client goroutines need
// (examples/server sheds 20–30 % fewer requests per second), so requests
// keep the park and direct-handoff path. A joiner also stops as soon as
// the pool is not solo; an idle worker spins out its window, in which it
// takes a newly submitted root off the queue without a wake.
//
//sched:noalloc
func (w *Worker) spin(start time.Time, g *Group) bool {
	for {
		runtime.Gosched()
		if g != nil && g.Finished() || w.runOne() {
			return true
		}
		if time.Since(start) >= parkSpin || g != nil && !w.pool.solo() {
			return false
		}
	}
}

// mainLoop is the top-level scheduling loop: run work while it exists,
// spin briefly, park when the system is quiescent, exit on pool close.
// With time accounting on, a busy burst runs from the first task after a
// wake to the start of the spin that ended it; the spin and the park are
// idle — the clock is read at burst boundaries, never per task.
//
//sched:noalloc
func (w *Worker) mainLoop() {
	defer w.pool.wg.Done()
	for {
		acct := w.pool.timeAcct.Load()
		var burstStart, idleStart time.Time
		if acct {
			burstStart = time.Now()
		}
		worked := false
		// A direct handoff (Pool.submit) rides the wake token: run it
		// before any sweeping — it IS the work the wake announced.
		if t := w.handoff; t != nil {
			w.handoff = nil
			w.run(t)
			worked = true
		}
		for {
			if w.runOne() {
				worked = true
				continue
			}
			solo := w.pool.solo()
			if solo || acct {
				idleStart = time.Now()
			}
			if solo && w.spin(idleStart, nil) {
				worked = true
				continue
			}
			// Announce intent to park, then sweep once more: any task made
			// visible before the announce is found by this sweep, and any
			// task published after it observes the announce and delivers
			// (or credits) a wake.
			w.state.Store(wParking)
			w.pool.nparked.Add(1)
			if w.runOne() {
				w.unpark()
				worked = true
				continue
			}
			break
		}
		if acct && worked {
			w.busyNanos.Add(idleStart.Sub(burstStart).Nanoseconds())
		}
		// Going idle: release whatever consumed deque slots still pin.
		// Pops and steals skip slot clearing on the hot path, so this is
		// where the memory-hygiene debt is settled.
		w.dq.Clean()
		// A parking worker retires its OWN failed-sweep demand unit: from
		// here its idleness is represented by nparked (which Demand()
		// checks first, and which was incremented before this point — so
		// no observer window sees neither signal). Other workers' hungry
		// units are untouched: with several live loops, thieves still
		// actively sweeping on behalf of other loops keep the demand
		// signal raised — the old pool-wide flag clear erased theirs too.
		w.noteFed()
		if w.state.CompareAndSwap(wParking, wParked) {
			// Committed-park census: already on the blocking slow path, so
			// the counter costs nothing on the wake-to-first-task edge.
			w.parks.Add(1)
			// Committed to blocking. The quitting check sits between the
			// CAS and the receive: if Close's wake pass missed us (we were
			// active then), our CAS precedes this load in the seq-cst total
			// order while Close's store precedes its wake-pass read of our
			// state — one of the two must observe the other, so either we
			// see quitting here or the pass saw us parked and sent a token.
			// Skipping the receive is only safe if no producer reserved us
			// in the meantime: the wParked→wActive CAS below is mutually
			// exclusive with the wParked→wNotified reservation every waker
			// and direct handoff performs, and with a borrower's
			// wParked→wLent (whose hand-back re-checks quitting), so either
			// we retract unreserved (skip) or a token — possibly carrying
			// a handoff task — is in flight and must be consumed.
			if !w.pool.quitting.Load() || !w.state.CompareAndSwap(wParked, wActive) {
				<-w.park
			}
		}
		// Woken (or the wake landed during the announcement and the park
		// CAS consumed it with no channel traffic). Time the identity
		// spent lent to a borrower was busy, not idle.
		lent := w.lentNanos
		w.lentNanos = 0
		if acct {
			w.idleNanos.Add(time.Since(idleStart).Nanoseconds() - lent)
		}
		w.unpark()
		if w.pool.quitting.Load() {
			// Final drain: a Run that won the submit/Close race enqueued
			// its root (or handed it off directly) before Close tripped
			// quitting; execute everything reachable so no Run caller is
			// left blocked on a task that never runs.
			if t := w.handoff; t != nil {
				w.handoff = nil
				w.run(t)
			}
			for w.runOne() {
			}
			return
		}
	}
}

// unpark retracts a parking announcement: back to active (lent, for a
// borrower), off the parked census. The store overwrites a pending
// wNotified mark, which is safe — every unpark path re-enters a full
// runOne sweep before the worker can block again (or the worker is
// exiting on the quitting edge).
//
//sched:noalloc
func (w *Worker) unpark() {
	if w.guest != nil {
		w.state.Store(wLent)
	} else {
		w.state.Store(wActive)
	}
	w.pool.nparked.Add(-1)
}
