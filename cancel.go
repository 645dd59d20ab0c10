package hybridloop

import (
	"context"
	"time"

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
// *TaskPanicError, exactly as it does from For. Under admission control a
// rejected submission degrades to a serial inline run, exactly as For
// does: body is called once with the whole range on the calling goroutine
// and its error (if any) returned.
//
//sched:noalloc
func (p *Pool) ForErr(begin, end int, body func(lo, hi int) error, opts ...ForOption) error {
	if end <= begin {
		return nil
	}
	if p.admitOrInline() {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		return body(begin, end)
	} else if p.gate != nil {
		defer p.gate.Release()
	}
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	return r.ForErr(begin, end, body)
}

// ForEachErr is ForErr with a per-index body. The erroring worker stops
// mid-chunk at the failing index; other workers stop at their next chunk
// boundary. Under admission control a rejected submission degrades to a
// serial inline run that stops at the first error.
//
//sched:noalloc
func (p *Pool) ForEachErr(begin, end int, body func(i int) error, opts ...ForOption) error {
	if end <= begin {
		return nil
	}
	if p.admitOrInline() {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		for i := begin; i < end; i++ {
			if err := body(i); err != nil {
				return err
			}
		}
		return nil
	} else if p.gate != nil {
		defer p.gate.Release()
	}
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	return r.ForEachErr(begin, end, body)
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
//
//sched:noalloc
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
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	if ctx.Done() == nil {
		r.For(begin, end, body)
		return nil
	}
	return r.ForCtx(ctx, begin, end, body)
}
