package loop

import (
	"sync"

	"hybridloop/internal/core"
	"hybridloop/internal/sched"
)

// frame is the recycled scratch of a root loop, one that For or ForW start
// from outside the pool: everything such a loop used to allocate per call.
// A frame runs one loop at a time. Frames are recycled per pool the way
// sched's Run frames are: a single-slot cache in the pool (sched.TakeFrame)
// that overflows to framePool. Nested loops, started from inside a task,
// allocate their own descriptor, partition set and token.
//
// Lifecycle: acquire, copy in the caller's arguments, Run the pre-bound
// root, release. A frame is handed out again only when nothing can still
// reach it:
//
//   - every participant of the loop joined its group before Run returned,
//     except idle workers that reached the descriptor through a registry
//     probe. UnregisterLoop reports whether one may still hold it (h.held);
//     such a frame goes back to its pool's slot untouched, and the next
//     acquire asks the pool again (LoopHeld) before using it;
//   - the loop's token was never cancelled, as a Canceller has no way back
//     to live (and the external token of ForErr/ForCtx belongs to the
//     caller);
//   - no body panicked: Run then panics past release.
//
// Any other frame is left to the collector.
type frame struct {
	begin, end int
	body       BodyW
	opts       Options
	plain      Body                  // For's body, which adapt calls
	adapt      BodyW                 // pre-bound adapter over plain
	root       func(w *sched.Worker) // pre-bound root: the loop the fields above describe
	cancel     sched.Canceller       // the default token
	h          hybridLoop
	ps         *core.PartitionSet // h.ps for an unweighted hybrid loop, reset per loop
}

var framePool = sync.Pool{New: func() any {
	f := &frame{}
	f.adapt = func(_ *sched.Worker, lo, hi int) { f.plain(lo, hi) }
	f.root = func(w *sched.Worker) { workerForW(w, f.begin, f.end, f.body, &f.opts) }
	return f
}}

// acquireFrame takes pool's cached frame, unless a probe still holds it,
// or one from framePool.
//
//sched:noalloc
func acquireFrame(pool *sched.Pool) *frame {
	f := sched.TakeFrame[frame](pool)
	if f != nil && f.h.held {
		if pool.LoopHeld(&f.h) {
			f = nil
		} else {
			f.h.held = false
		}
	}
	if f == nil {
		f = framePool.Get().(*frame)
	}
	return f
}

// run executes one root loop on f and releases f.
//
//sched:noalloc
func (f *frame) run(pool *sched.Pool, begin, end int, body BodyW, opts *Options) {
	f.begin, f.end, f.body, f.opts = begin, end, body, *opts
	f.opts.frame = f
	pool.Run(f.root)
	f.release(pool)
}

// release recycles f after a loop that returned normally, unless its
// token was cancelled (see frame). A frame a probe may still hold goes
// only to pool's slot, whose next acquire checks it, and keeps what the
// probe may read; any other drops the caller's references so a cached
// frame retains nothing.
//
//sched:noalloc
func (f *frame) release(pool *sched.Pool) {
	if f.opts.Cancel.Cancelled() {
		return
	}
	if f.h.held {
		sched.PutFrame(pool, f)
		return
	}
	f.body, f.plain, f.h.rs.body = nil, nil, nil
	f.opts = Options{}
	if !sched.PutFrame(pool, f) {
		framePool.Put(f)
	}
}

// descriptor returns the loop's registry descriptor: the frame's for a
// root loop, a new one for a nested loop.
//
//sched:noalloc
func (o *Options) descriptor() *hybridLoop {
	if o.frame != nil {
		return &o.frame.h
	}
	//lint:ignore noalloc a nested loop has no frame
	return &hybridLoop{}
}

// partitions returns the hybrid loop's partition set over [begin, end)
// with R = NextPow2(p): the frame's, reset in place, for an unweighted
// root loop; a new one otherwise.
//
//sched:noalloc
func (o *Options) partitions(begin, end, p int) *core.PartitionSet {
	if o.Weight != nil {
		return core.NewPartitionSetParts(o.split(begin, end, core.NextPow2(p)))
	}
	f := o.frame
	if f == nil {
		return core.NewPartitionSet(begin, end, p)
	}
	if f.ps == nil || f.ps.R() != core.NextPow2(p) {
		f.ps = core.NewPartitionSet(begin, end, p)
	} else {
		f.ps.Reset(begin, end)
	}
	return f.ps
}
