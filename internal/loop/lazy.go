package loop

import (
	"sync/atomic"
	"time"

	"hybridloop/internal/deque"
	"hybridloop/internal/sched"
	"hybridloop/internal/trace"
)

// rangeSet is the shared stealable-range state of one lazily split loop
// (or of the per-partition doWork of one hybrid loop): a published range
// descriptor per worker, plus the loop body and the accounting group that
// Wait joins on. Both loop strategies that used eager divide-and-conquer
// (DynamicStealing's stealingFor and Hybrid's runPartition) run on it.
//
// The lazy protocol replaces the eager binary tree of lg(n/chunk) deque
// pushes per range with a single published word: the executing worker
// keeps its remaining [lo, hi) interval in its RangeSlot, consumes it one
// chunk at a time from the front, and polls the pool's thief-demand hint
// each chunk. When no thief ever shows up — the common case, because the
// claim phase already balanced the load — the whole range executes with
// zero deque traffic and zero allocations. A thief CASes off the upper
// half of a victim's remaining range (steal-half) and becomes a lazy
// owner of the stolen half in its own slot, so splitting recurses exactly
// as deep as demand drives it.
//
// Accounting invariants (all atomics are sequentially consistent):
//
//   - A published slot counts as one pending unit in g ("the hold"),
//     added before consumption starts and released by the owner after it
//     observes its slot empty. Only the owner ever empties its slot:
//     StealHalf always leaves at least one iteration behind.
//   - A thief Adds to g BEFORE attempting its CAS and Dones after
//     executing the stolen half (or immediately, if the CAS failed). A
//     successful steal CAS precedes the owner's emptying CAS in the
//     slot's modification order, so by the time the owner releases its
//     hold the thief's Add is already visible — the group can never hit
//     zero while stolen work is in flight.
//
// Ranges whose bounds exceed int32, and re-entrant entries whose slot is
// still occupied (a worker helping inside a nested Wait while its own
// published range is suspended), fall back to the eager SpawnRange
// lowering — correct, merely eager.
type rangeSet struct {
	slots  []deque.RangeSlot // indexed by worker ID
	active atomic.Int32      // published, not-yet-released slots
	g      *sched.Group
	body   BodyW
	opts   *Options
	chunk  int
	stride atomic.Int32    // measured poll stride, shared across entries (0 = not yet measured)
	task   sched.RangeTask // eager-fallback task; re-enters runOwned
}

// init wires rs for one loop on a pool of p workers. The slot array and
// the eager-fallback task are built on a descriptor's first loop and kept
// for the next: a loop that completes leaves every slot empty and the
// active count at zero.
//
//sched:noalloc
func (rs *rangeSet) init(p int, g *sched.Group, body BodyW, opts *Options, chunk int) {
	if len(rs.slots) != p {
		rs.build(p)
	}
	rs.g = g
	rs.body = body
	rs.opts = opts
	rs.chunk = chunk
	rs.stride.Store(0)
}

// build allocates the slot array and the task closure over rs.
func (rs *rangeSet) build(p int) {
	rs.slots = make([]deque.RangeSlot, p)
	rs.task = func(cw *sched.Worker, lo, hi int) { rs.runOwned(cw, lo, hi) }
}

// runOwned executes [lo, hi) on w as its lazy owner: publish the range in
// w's slot, then consume chunk-at-a-time while thieves may halve the
// remainder. Falls back to the eager spawn lowering when the range does
// not pack (int32 overflow) or the slot is occupied (re-entrant nested
// entry).
//
//sched:noalloc
func (rs *rangeSet) runOwned(w *sched.Worker, lo, hi int) {
	cc := rs.opts.Cancel
	if cc.Cancelled() {
		// A range handed to a dead loop (an eager-fallback spawn or a
		// stolen half dequeued after the token tripped) is abandoned
		// before it is ever published.
		if rs.opts.Trace != nil {
			rs.opts.Trace.Add(w.ID(), trace.Cancel, int64(lo), int64(hi))
		}
		return
	}
	if hi-lo <= rs.chunk {
		runChunk(w, rs.body, rs.opts, lo, hi)
		return
	}
	s := &rs.slots[w.ID()]
	if !s.Publish(lo, hi) {
		rs.runEager(w, lo, hi)
		return
	}
	rs.g.Add(1) // the hold: the published slot is outstanding work
	rs.active.Add(1)
	defer func() {
		// On the normal path the slot is already empty and Reset is a
		// no-op; on a panic unwind it abandons the remainder so a dying
		// loop stops advertising stealable work and a thief mid-probe
		// finds nothing to steal from the unwinding owner.
		s.Reset()
		rs.active.Add(-1)
		rs.g.Done()
	}()
	pool := w.Pool()
	// The cancel, demand, and inject polls — and, crucially, the take CAS
	// itself — run once per poll window of up to stride chunks (see
	// pacer.go): the owner claims a whole window from its slot in ONE CAS
	// and slices it into chunk-sized body calls with plain arithmetic, so
	// steady-state consumption costs one atomic op per ~pollBudgetNanos of
	// body work instead of one per chunk. The stride comes from the
	// tuner's chunk-cost estimate when set; otherwise the first entry
	// times one chunk and publishes the stride in rs.stride for every
	// later entry of the same loop (other partitions, stolen halves).
	//
	// The window bounds both responsiveness and privatization: a claimed
	// window is no longer visible to StealHalf, and cancellation is only
	// polled between windows, so a worker holds at most stride chunks
	// (≈ pollBudgetNanos of work, ≤ maxPollStride chunks) beyond any
	// external event. The entry Cancelled check above covers the first
	// window. TakeGuided also caps each window at half the remainder,
	// rounded up to a chunk, so the range's last iterations stay
	// stealable even when the stride was measured on a light first chunk.
	stride := rs.opts.pollStride
	if stride == 0 {
		stride = rs.stride.Load()
	}
	if stride == 0 {
		clo, chi, ok := s.TakeFront(rs.chunk)
		if !ok {
			return
		}
		t0 := time.Now()
		execChunk(w, rs.body, rs.opts, clo, chi)
		stride = pollStrideFor(time.Since(t0).Nanoseconds())
		rs.stride.Store(stride)
	}
	window := int(stride) * rs.chunk
	polls := 0 // this entry's ServeInjected count
	for {
		wlo, whi, ok := s.TakeGuided(rs.chunk, window)
		if !ok {
			return
		}
		for clo := wlo; clo < whi; clo += rs.chunk {
			chi := clo + rs.chunk
			if chi > whi {
				chi = whi
			}
			execChunk(w, rs.body, rs.opts, clo, chi)
		}
		if cc.Cancelled() {
			// Poison the published descriptor: the remainder is taken out
			// of circulation atomically, so a concurrent StealHalf either
			// completed first (its half is drained by the thief's own
			// runOwned entry check) or observes an empty slot.
			if alo, ahi, ok := s.Abandon(); ok && rs.opts.Trace != nil {
				rs.opts.Trace.Add(w.ID(), trace.Cancel, int64(alo), int64(ahi))
			}
			return
		}
		// The demand poll: only when idle capacity exists AND surplus
		// remains does the owner spend a wakeup routing a thief to its
		// published range.
		if s.Remaining() > rs.chunk && pool.Demand() {
			pool.MeetDemand()
		}
		// Cross-loop latency fairness: a newly submitted loop's root sits
		// in the injection queue, and with every worker mid-partition
		// nobody would return to runOne for a long time — so owners
		// serve pending submissions between windows, by weighted round
		// robin with this loop. The detour leaves this loop's published
		// range stealable, so its load balancing continues underneath.
		if pool.InjectPending() {
			polls = pool.ServeInjected(w, rs.opts.Priority, polls)
		}
	}
}

// runEager is the pre-lazy lowering kept as the fallback: recursive
// binary division spawned into the deque so thieves steal the biggest
// remaining pieces. Stolen subtrees re-enter runOwned on the thief and
// turn lazy again.
func (rs *rangeSet) runEager(w *sched.Worker, lo, hi int) {
	for hi-lo > rs.chunk {
		mid := lo + (hi-lo)/2
		w.SpawnRange(rs.g, rs.task, mid, hi)
		hi = mid
	}
	runChunk(w, rs.body, rs.opts, lo, hi)
}

// trySteal makes one steal sweep over the published slots, hierarchically:
// same-socket victims first (steal-half), then remote sockets (a larger
// StealBack fraction — default ¾ of the remainder — so the ~515-cycle
// remote-L3 line cost is amortized over more iterations per transfer).
// Victim lists come precomputed from the worker (self excluded, so the
// random rotation first-probes every victim with equal probability). On
// success the thief executes the stolen piece as a lazy owner (protected,
// so a panicking body surfaces at the loop's Wait rather than killing the
// worker) and returns true, having counted the entry before running it.
func (rs *rangeSet) trySteal(w *sched.Worker) bool {
	if len(rs.slots) == 0 || rs.active.Load() == 0 || rs.opts.Cancel.Cancelled() {
		// A cancelled loop feeds no thieves: whatever its slots still
		// hold is being abandoned by their owners.
		return false
	}
	local, remote := w.Victims()
	if rs.sweepSteal(w, local, false) {
		return true
	}
	return rs.sweepSteal(w, remote, true)
}

// sweepSteal probes each victim's published slot once, rotating from a
// uniformly drawn start; remote selects the cross-socket transfer
// fraction and the distance attribution (counters + trace kind).
func (rs *rangeSet) sweepSteal(w *sched.Worker, victims []*sched.Worker, remote bool) bool {
	n := len(victims)
	if n == 0 {
		return false
	}
	num, den := 1, 2
	if remote {
		num, den = w.Pool().Placement().RemoteStealFraction()
	}
	start := 0
	if n > 1 {
		start = w.RNG().Intn(n)
	}
	for k := 0; k < n; k++ {
		s := &rs.slots[victims[(start+k)%n].ID()]
		if s.Remaining() <= rs.chunk {
			continue
		}
		// Optimistic Add: ordered before the CAS, so a successful steal
		// is enrolled in the group before the victim can possibly release
		// its hold (see the invariant note on rangeSet).
		rs.g.Add(1)
		lo, hi, ok := s.StealBack(rs.chunk, num, den)
		if !ok {
			rs.g.Done()
			continue
		}
		w.NoteRangeSteal(remote)
		w.NoteLoopEntry()
		if rs.opts.Trace != nil {
			kind := trace.RangeSplit
			if remote {
				kind = trace.RangeSplitRemote
			}
			rs.opts.Trace.Add(w.ID(), kind, int64(lo), int64(hi))
			rs.opts.Trace.Add(w.ID(), trace.StealEntry, int64(w.ID()), 0)
		}
		if s.Remaining() > rs.chunk {
			// Wake chaining: the victim still has surplus after this
			// steal; recruit the next parked worker toward it.
			w.Pool().Notify()
		}
		rs.g.Protect(func() { rs.runOwned(w, lo, hi) })
		rs.g.Done()
		return true
	}
	return false
}
