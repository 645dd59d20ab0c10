package loop

import (
	"context"
	"sync/atomic"

	"hybridloop/internal/core"
	"hybridloop/internal/sched"
)

// frame is the recycled scratch of a loop: everything a loop used to
// allocate per call, the options its caller's ForOptions are applied to
// among them. Every loop runs on one, a root loop (started from outside
// the pool) and a nested loop (started by a task, which runs it inline on
// its worker) alike. A frame runs one loop at a time. Frames are recycled
// through a free list per pool (sched.TakeFrame), the way sched recycles
// its Run frames.
//
// Lifecycle: Acquire (AcquireOn for a nested loop), write the options in
// place, run the pre-bound root through one of Root's methods, release. A
// frame is handed out again only when nothing can still reach it:
//
//   - every participant of the loop joined its group before the loop
//     returned, except idle workers that reached the descriptor through a
//     registry probe. UnregisterLoop reports whether one may still hold it
//     (h.held); such a frame goes back to the free list all the same, and
//     waits there: every acquire that meets it asks the pool again
//     (LoopHeld, which on a solo pool waits up to the scheduler's spin
//     bound for the probe to leave) and passes it over while it is held.
//     A nested acquire runs inside a Run, where LoopHeld scans once: the
//     probe that holds the frame may be the calling worker's own, held
//     while it runs the body that starts the nested loop, and waiting on
//     it would only stall the caller;
//   - no body panicked: the loop then panics past release.
//
// A frame whose loop panicked is left to the collector. One that finds
// the free list's slots full goes to its overflow, which a collection
// empties. The frame's own token is not reused once it was cancelled,
// as a Canceller has no way back to live: release gives the frame a fresh
// one when the loop tripped it. A held frame's token may still be polled
// by the probe, and a poll that finds a watched context done trips it, so
// a held frame keeps its token watching until an acquire finds the frame
// free, which then stops the watch, and replaces the token if a poll
// tripped it meanwhile. An external token in Options.Cancel belongs to
// the caller and is never the frame's.
type frame struct {
	begin, end int
	body       BodyW
	opts       Options
	pool       *sched.Pool

	// The body forms the loop entries accept, each called by a pre-bound
	// adapter of its own; a loop sets one of them.
	plain    Body                   // For's and ForCtx's body, which adapt calls
	each     func(i int)            // ForEach's body, which adaptEach calls
	fallible func(lo, hi int) error // ForErr's body, which adaptErr calls
	eachErr  func(i int) error      // ForEachErr's body, which adaptEachErr calls

	// Sum's reduction: the loop runs over block indices, and adaptSum
	// stores the fold of block b of [base, limit) under item in sums[b].
	item        func(i int) float64
	base, limit int
	sums        []float64

	adapt, adaptEach, adaptErr, adaptEachErr, adaptSum BodyW

	root   func(w *sched.Worker) // pre-bound root: the loop the fields above describe
	cancel *sched.Canceller      // the default token, and ForErr's and ForCtx's
	obs    invObs                // an observed Auto play's feedback
	h      hybridLoop
	ps     *core.PartitionSet // h.ps for an unweighted hybrid loop, reset per loop

	// A team loop's state (see teamRun): the group its members join, the
	// counter DynamicSharing and Guided grab from, Static's parts, the
	// chunk, and the member task pinned to every other worker.
	team   sched.Group
	next   atomic.Int64
	parts  []core.Range
	chunk  int
	member sched.Task
}

// newFrame builds a frame and binds its adapters, root and team task.
func newFrame() *frame {
	f := &frame{cancel: new(sched.Canceller)}
	f.adapt = func(_ *sched.Worker, lo, hi int) { f.plain(lo, hi) }
	f.adaptEach = func(_ *sched.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			f.each(i)
		}
	}
	f.adaptErr = func(w *sched.Worker, lo, hi int) {
		if err := f.fallible(lo, hi); err != nil {
			f.fail(w, err)
		}
	}
	f.adaptEachErr = func(w *sched.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := f.eachErr(i); err != nil {
				f.fail(w, err)
				return
			}
		}
	}
	f.adaptSum = func(_ *sched.Worker, lo, hi int) {
		for b := lo; b < hi; b++ {
			f.sums[b] = blockSum(f.item, f.base, f.limit, b)
		}
	}
	f.root = func(w *sched.Worker) { workerForW(w, f.begin, f.end, f.body, &f.opts) }
	f.member = func(w *sched.Worker) { f.teamMember(w) }
	return f
}

// fail trips the frame's token with a body's error. The first error also
// wakes every parked worker, so the drain of the dying loop (claim
// releases, slot poisoning) is not left to the one worker blocked in the
// join.
func (f *frame) fail(w *sched.Worker, err error) {
	if f.cancel.Cancel(err) {
		w.Pool().WakeAll()
	}
}

// Root is a loop about to start on a recycled frame. Acquire (AcquireOn)
// takes the frame, the caller writes the loop's options in place through
// Options, and one run method starts the loop, waits for it and recycles
// the frame. A Root serves exactly one loop.
type Root struct {
	f *frame
	w *sched.Worker // the worker a nested loop runs on; nil for a root loop
}

// Acquire takes a frame from pool's free list, passing over any that a
// probe still holds, or builds one, and returns it with zero options. A
// joiner that spins returns while the thief that ran its loop's last
// piece is still leaving its probe, so the frame it put back is often
// flagged held; LoopHeld then waits out the probe's last few instructions
// rather than pass the frame over.
//
//sched:noalloc
func Acquire(pool *sched.Pool) Root {
	f := sched.TakeFrame(pool, reusable)
	if f == nil {
		f = newFrame() // the free list has no frame that no probe holds
		f.pool = pool
	}
	f.opts.frame = f // release and reusable leave the options zero
	return Root{f: f}
}

// AcquireOn is Acquire for a nested loop, started by a task running on w:
// the loop runs inline on w, in place of a Run.
//
//sched:noalloc
func AcquireOn(w *sched.Worker) Root {
	r := Acquire(w.Pool())
	r.w = w
	return r
}

// reusable reports whether no probe still holds f. A frame that was held
// is then made ready for its next loop, as release makes any other: its
// token is replaced if a stale probe's poll tripped it meanwhile, and the
// frame is reset.
//
//sched:noalloc
func reusable(pool *sched.Pool, f *frame) bool {
	if !f.h.held {
		return true
	}
	if pool.LoopHeld(&f.h) {
		return false
	}
	f.h.held = false
	if f.cancel.Err() != nil {
		//lint:ignore noalloc only when a stale probe's poll found the held loop's context done
		f.cancel = new(sched.Canceller)
	}
	f.reset()
	return true
}

// Options returns the loop's options, to be written before it runs.
func (r Root) Options() *Options { return &r.f.opts }

// For runs body over [begin, end) as the loop's iterations.
//
//sched:noalloc
func (r Root) For(begin, end int, body Body) {
	f := r.f
	f.plain = body
	r.run(nil, begin, end, f.adapt)
	f.release()
}

// ForEach is For with a per-index body.
//
//sched:noalloc
func (r Root) ForEach(begin, end int, body func(i int)) {
	f := r.f
	f.each = body
	r.run(nil, begin, end, f.adaptEach)
	f.release()
}

// ForW is For with a worker-aware body.
//
//sched:noalloc
func (r Root) ForW(begin, end int, body BodyW) {
	f := r.f
	r.run(nil, begin, end, body)
	f.release()
}

// ForErr is For with a body that may fail: the first error cancels the
// loop, waking every parked worker to help drain it, and is returned.
//
//sched:noalloc
func (r Root) ForErr(begin, end int, body func(lo, hi int) error) error {
	f := r.f
	f.fallible = body
	f.opts.Cancel = f.cancel
	err := r.run(nil, begin, end, f.adaptErr)
	f.release()
	return err
}

// ForEachErr is ForErr with a per-index body. The erroring worker stops
// mid-chunk at the failing index.
//
//sched:noalloc
func (r Root) ForEachErr(begin, end int, body func(i int) error) error {
	f := r.f
	f.eachErr = body
	f.opts.Cancel = f.cancel
	err := r.run(nil, begin, end, f.adaptEachErr)
	f.release()
	return err
}

// ForCtx is For stopped early by ctx: the loop's token watches ctx, so the
// loop's own polls notice it is done, and ForCtx returns ctx.Err() if the
// loop was cut short.
//
//sched:noalloc
func (r Root) ForCtx(ctx context.Context, begin, end int, body Body) error {
	f := r.f
	f.plain = body
	f.opts.Cancel = f.cancel
	err := r.run(ctx, begin, end, f.adapt)
	f.release()
	return err
}

// Sum returns the sum of item(i) over [begin, end): the loop runs over
// blocks of SumBlock indices, each block is folded by blockSum into the
// frame's block sums, and those are added up in block order, so the result
// does not depend on the schedule.
//
//sched:noalloc
func (r Root) Sum(begin, end int, item func(i int) float64) float64 {
	f := r.f
	nb := (end - begin + SumBlock - 1) / SumBlock
	if cap(f.sums) < nb {
		//lint:ignore noalloc the frame's block sums grow to the largest Sum it served, up to maxKeptSums
		f.sums = make([]float64, nb)
	}
	f.sums = f.sums[:nb]
	f.item, f.base, f.limit = item, begin, end
	r.run(nil, 0, nb, f.adaptSum)
	acc := 0.0
	for _, s := range f.sums {
		acc += s
	}
	f.release()
	return acc
}

// SumBlock is the number of indices Sum folds into one block sum.
const SumBlock = 1024

// blockSum folds item over block b of [begin, end), whose blocks are
// SumBlock indices long.
func blockSum(item func(i int) float64, begin, end, b int) float64 {
	lo := begin + b*SumBlock
	hi := min(lo+SumBlock, end)
	var s float64
	for i := lo; i < hi; i++ {
		s += item(i)
	}
	return s
}

// SerialSum is Sum run inline on the caller, with the same blocks and
// order of addition, so the same result.
func SerialSum(begin, end int, item func(i int) float64) float64 {
	acc := 0.0
	for b, nb := 0, (end-begin+SumBlock-1)/SumBlock; b < nb; b++ {
		acc += blockSum(item, begin, end, b)
	}
	return acc
}

// run executes the loop on r's frame, with its token watching ctx (nil
// for none), and returns the error the loop's token was cancelled with, if
// any: a root loop through a Run, a nested one inline on its worker. The
// caller reads what it needs from the frame, then releases it.
//
//sched:noalloc
func (r Root) run(ctx context.Context, begin, end int, body BodyW) error {
	f := r.f
	f.begin, f.end, f.body = begin, end, body
	f.cancel.Watch(ctx)
	if r.w != nil {
		f.root(r.w)
	} else {
		f.pool.RunWeighted(f.root, f.opts.Priority)
	}
	return f.opts.Cancel.Err()
}

// release recycles f after a loop that returned normally, with a fresh
// token if its own was cancelled (see frame). A frame a probe may still
// hold keeps what the probe may read, its options and their token among
// them, until an acquire finds it free (reusable), which resets it; any
// other is reset here, so it retains none of the caller's references in
// the free list.
//
//sched:noalloc
func (f *frame) release() {
	if f.cancel.Err() != nil {
		//lint:ignore noalloc only after a cancelled loop
		f.cancel = new(sched.Canceller)
	}
	if !f.h.held {
		f.reset()
	}
	sched.PutFrame(f.pool, f)
}

// maxKeptSums bounds the block sums a frame keeps between loops, so that
// one large Sum does not pin its blocks in every frame it ran on.
const maxKeptSums = 256

// reset makes f ready for its next loop once no probe can reach the last
// one: it drops the caller's bodies, options and tokens, stops the token watching
// the last loop's context, and gives up block sums above maxKeptSums.
//
//sched:noalloc
func (f *frame) reset() {
	f.body, f.plain, f.each, f.fallible, f.eachErr, f.item, f.h.rs.body = nil, nil, nil, nil, nil, nil, nil
	f.cancel.Watch(nil)
	f.h.g.BindCancel(nil)
	f.team.BindCancel(nil)
	f.opts = Options{}
	if cap(f.sums) > maxKeptSums {
		f.sums = nil
	}
}

// start writes a loop's options into r's frame.
//
//sched:noalloc
func start(r Root, opts *Options) Root {
	r.f.opts = *opts
	r.f.opts.frame = r.f
	return r
}

// partitions returns the hybrid loop's partition set over [begin, end)
// with R = NextPow2(p): the frame's, reset in place, for an unweighted
// loop; a new one for a weighted loop.
//
//sched:noalloc
func (f *frame) partitions(begin, end, p int) *core.PartitionSet {
	if w := f.opts.Weight; w != nil {
		return core.NewPartitionSetParts(core.WeightedSplit(core.Range{Begin: begin, End: end}, core.NextPow2(p), w))
	}
	if f.ps == nil || f.ps.R() != core.NextPow2(p) {
		f.ps = core.NewPartitionSet(begin, end, p)
	} else {
		f.ps.Reset(begin, end)
	}
	return f.ps
}
