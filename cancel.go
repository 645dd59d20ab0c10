package hybridloop

import (
	"context"
	"time"

	"hybridloop/internal/loop"
	"hybridloop/internal/sched"
)

// ErrLoopCancelled is returned by ForCtx when the loop was cancelled
// without a more specific cause. ForCtx normally returns ctx.Err()
// (context.Canceled or context.DeadlineExceeded); this sentinel only
// surfaces if the token was tripped through some other path.
var ErrLoopCancelled = sched.ErrCancelled

// ForErr executes body over [begin, end) in parallel like For, but the
// body may fail: the first non-nil error cancels the loop and is
// returned. Cancellation is cooperative with per-chunk granularity —
// every other worker finishes at most the chunk it is currently
// executing, then stops; unclaimed partitions, published steal-half
// ranges, and unconsumed shared-counter iterations are abandoned without
// running their bodies. On the error-free path the loop behaves exactly
// like For and returns nil; iterations are then executed exactly once.
// After an error, which iterations ran is unspecified beyond "every
// executed iteration ran exactly once".
//
// A panicking body is not converted to an error: the panic cancels the
// remaining workers the same way and then propagates to the caller as a
// *TaskPanicError, exactly as it does from For.
func (p *Pool) ForErr(begin, end int, body func(lo, hi int) error, opts ...ForOption) error {
	return p.forErr(begin, end, body, opts, 2)
}

// ForEachErr is ForErr with a per-index body. The erroring worker stops
// mid-chunk at the failing index; other workers stop at their next chunk
// boundary.
func (p *Pool) ForEachErr(begin, end int, body func(i int) error, opts ...ForOption) error {
	return p.forErr(begin, end, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	}, opts, 2)
}

// forErr is the shared lowering of ForErr/ForEachErr. skip is the frame
// distance to the user's call site for Auto-loop attribution. Under
// admission control a rejected submission degrades to a serial inline
// run, exactly as For does: body is called once with the whole range on
// the calling goroutine and its error (if any) returned.
func (p *Pool) forErr(begin, end int, body func(lo, hi int) error, opts []ForOption, skip int) error {
	if end <= begin {
		return nil
	}
	if release, inline := p.admitOrInline(); inline {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		return body(begin, end)
	} else if release != nil {
		defer release()
	}
	c := new(sched.Canceller)
	o := p.options(opts, skip)
	o.Cancel = c
	if p.mreg != nil {
		defer p.observeLoop(&o, time.Now())
	}
	s := p.s
	loop.ForW(s, begin, end, func(_ *Worker, lo, hi int) {
		if err := body(lo, hi); err != nil && c.Cancel(err) {
			// First error: wake every parked worker so the drain of the
			// dying loop (claim releases, slot poisoning) is not left to
			// the one worker blocked in the join.
			s.WakeAll()
		}
	}, o)
	return c.Err()
}

// ForCtx executes body over [begin, end) in parallel like For, stopping
// early if ctx is cancelled or its deadline passes. It returns nil when
// the loop ran to completion and ctx.Err() when it was cancelled; as with
// ForErr, cancellation is cooperative with per-chunk granularity, so the
// bound on extra work after the deadline is one chunk per worker. A ctx
// that can never be cancelled (context.Background()) adds no overhead
// beyond plain For.
//
// The body itself is not passed the context: chunk sizes are chosen small
// enough that checking between chunks is the intended granularity. Bodies
// with very long single iterations should consult ctx themselves.
func (p *Pool) ForCtx(ctx context.Context, begin, end int, body Body, opts ...ForOption) error {
	if end <= begin {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// ForCtx is the blocking-with-ctx admission variant: a submission the
	// gate cannot admit immediately waits for an in-flight slot (and a
	// rate token) under ctx, so callers get bounded queueing with a
	// deadline instead of an inline fallback — the natural shape for an
	// HTTP handler holding a request context.
	if p.gate != nil {
		if err := p.gate.Acquire(ctx); err != nil {
			return err
		}
		defer p.gate.Release()
	}
	if ctx.Done() == nil {
		p.forUngated(begin, end, body, opts)
		return nil
	}
	c := new(sched.Canceller)
	o := p.options(opts, 1)
	o.Cancel = c
	if p.mreg != nil {
		defer p.observeLoop(&o, time.Now())
	}
	s := p.s
	stop := context.AfterFunc(ctx, func() {
		if c.Cancel(ctx.Err()) {
			s.WakeAll()
		}
	})
	defer stop()
	loop.For(s, begin, end, body, o)
	return c.Err()
}
