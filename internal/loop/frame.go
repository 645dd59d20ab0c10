package loop

import (
	"context"
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
//     such a frame goes back to its pool's slot, and the next acquire asks
//     the pool again (LoopHeld, which on a solo pool waits up to the
//     scheduler's spin bound for the probe to leave) before using it;
//   - no body panicked: Run then panics past release.
//
// Any other frame is left to the collector. The frame's own token is not
// reused once it may have been cancelled, as a Canceller has no way back
// to live: release gives the frame a fresh one when the old one was
// tripped, or when it watches a context and a probe may still poll it (a
// poll that finds the context done trips the token). An external token in
// Options.Cancel belongs to the caller and is never the frame's.
type frame struct {
	begin, end int
	body       BodyW
	opts       Options
	plain      Body                   // For's and ForCtx's body, which adapt calls
	adapt      BodyW                  // pre-bound adapter over plain
	fallible   func(lo, hi int) error // ForErr's body, which adaptErr calls
	adaptErr   BodyW                  // pre-bound adapter over fallible, tripping cancel
	root       func(w *sched.Worker)  // pre-bound root: the loop the fields above describe
	cancel     *sched.Canceller       // the default token, and ForErr's and ForCtx's
	h          hybridLoop
	ps         *core.PartitionSet // h.ps for an unweighted hybrid loop, reset per loop
}

var framePool = sync.Pool{New: func() any {
	f := &frame{cancel: new(sched.Canceller)}
	f.adapt = func(_ *sched.Worker, lo, hi int) { f.plain(lo, hi) }
	f.adaptErr = func(w *sched.Worker, lo, hi int) {
		if err := f.fallible(lo, hi); err != nil && f.cancel.Cancel(err) {
			// First error: wake every parked worker so the drain of the
			// dying loop (claim releases, slot poisoning) is not left to
			// the one worker blocked in the join.
			w.Pool().WakeAll()
		}
	}
	f.root = func(w *sched.Worker) { workerForW(w, f.begin, f.end, f.body, &f.opts) }
	return f
}}

// acquireFrame takes pool's cached frame, unless a probe still holds it,
// or one from framePool. A joiner that spins returns while the thief that
// ran its loop's last piece is still leaving its probe, so the cached
// frame is often flagged held; LoopHeld then waits out the probe's last
// few instructions rather than building a fresh frame.
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

// run executes one root loop on f, with its token watching ctx (nil for
// none), releases f, and returns the error the loop's token was cancelled
// with, if any.
//
//sched:noalloc
func (f *frame) run(pool *sched.Pool, ctx context.Context, begin, end int, body BodyW, opts *Options) error {
	f.begin, f.end, f.body, f.opts = begin, end, body, *opts
	f.opts.frame = f
	f.cancel.Watch(ctx)
	pool.RunWeighted(f.root, opts.Priority)
	err := f.opts.Cancel.Err()
	f.release(pool)
	return err
}

// release recycles f after a loop that returned normally, with a fresh
// token if its own may have been cancelled (see frame). A frame a probe
// may still hold goes only to pool's slot, whose next acquire checks it,
// and keeps what the probe may read, its options and their token among
// them; any other drops the caller's references so a cached frame
// retains nothing.
//
//sched:noalloc
func (f *frame) release(pool *sched.Pool) {
	if f.cancel.Err() != nil || f.h.held && f.cancel.Watching() {
		//lint:ignore noalloc only after a cancelled loop or a context-watching one a probe holds
		f.cancel = new(sched.Canceller)
	}
	if f.h.held {
		sched.PutFrame(pool, f)
		return
	}
	f.body, f.plain, f.fallible, f.h.rs.body = nil, nil, nil, nil
	f.cancel.Watch(nil)
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
