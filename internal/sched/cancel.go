package sched

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrCancelled is returned by Canceller.Err when the token was cancelled
// without a specific cause (a bare Cancel(nil)).
var ErrCancelled = errors.New("sched: loop cancelled")

// ErrPanicked is the cause a Canceller carries when it was tripped by a
// panic captured into its bound Group. The panic itself still propagates
// as a *TaskPanicError from the joining Wait; the token merely tells the
// surviving workers to stop executing further chunks.
var ErrPanicked = errors.New("sched: loop body panicked")

// Canceller is a cooperative cancellation token for one parallel loop:
// a single atomic word that loop strategies poll once per chunk, plus the
// first cause recorded for the caller. The zero value is a live (not
// cancelled) token. All methods are safe on a nil receiver — a nil
// *Canceller is a token that can never be cancelled — so un-cancellable
// loops pay only a nil check on the polling path.
//
// The word and the cause are separate atomics, ordered so a cause
// supplied to Cancel is published before the word flips: any observer of
// Cancelled() == true that then reads Err() sees the winning cause.
type Canceller struct {
	// word is the one-shot cancellation latch. The only legal move is the
	// live→cancelled CAS in Cancel, whose success edge pays the one-time
	// wake/trace work; there is no way back.
	//
	//sched:protocol cancel
	//sched:state live = 0
	//sched:state cancelled = 1
	//sched:trans live -> cancelled
	word  atomic.Uint32 // 0 = live, 1 = cancelled
	cause atomic.Pointer[error]
	// ctx is the context the token watches (see Watch) and done its Done
	// channel; nil when it watches none. Plain fields, written before the
	// loop starts.
	ctx  context.Context
	done <-chan struct{}
}

// Watch makes the token observe ctx: a poll (Cancelled) that finds ctx
// done trips the token with ctx.Err() as cause, so a context cancels a
// loop at the loop's own poll points, with no callback to register and
// nothing to allocate. Watch(nil) stops observing. Call it only while no
// loop polls the token.
func (c *Canceller) Watch(ctx context.Context) {
	c.ctx, c.done = ctx, nil
	if ctx != nil {
		c.done = ctx.Done()
	}
}

// Watching reports whether the token watches a context, so that a poll
// may yet trip it.
func (c *Canceller) Watching() bool { return c.done != nil }

// Cancel trips the token with err as the cause. The first non-nil cause
// wins; later calls cannot overwrite it. Returns true iff this call is
// the one that transitioned the token from live to cancelled — callers
// use that edge to pay one-time work (waking parked workers, tracing)
// exactly once.
func (c *Canceller) Cancel(err error) bool {
	if c == nil {
		return false
	}
	if err != nil && c.cause.Load() == nil {
		cause := err // boxed only here: later calls allocate nothing
		c.cause.CompareAndSwap(nil, &cause)
	}
	return c.word.CompareAndSwap(0, 1)
}

// Cancelled reports whether the token has been tripped. One atomic load,
// plus a non-blocking receive while the token watches a context; this is
// the per-chunk poll.
func (c *Canceller) Cancelled() bool {
	return c != nil && (c.word.Load() != 0 || c.done != nil && c.expired())
}

// expired trips the token if its watched context is done.
func (c *Canceller) expired() bool {
	select {
	case <-c.done:
		c.Cancel(c.ctx.Err())
		return true
	default:
		return false
	}
}

// Err returns nil while the token is live, the first recorded cause once
// cancelled, or ErrCancelled if it was cancelled without a cause.
func (c *Canceller) Err() error {
	if c == nil || c.word.Load() == 0 {
		return nil
	}
	if p := c.cause.Load(); p != nil {
		return *p
	}
	return ErrCancelled
}
