package hybridloop

import (
	"time"

	"hybridloop/internal/loop"
	"hybridloop/internal/sched"
)

// ErrBackpressure is returned by TryFor when the pool's admission gate
// rejects the submission: the in-flight loop budget is exhausted or the
// submit-rate token bucket is empty. It is the overload signal of the
// multi-tenant serving mode — callers shed load (an HTTP 503), retry
// later, or fall back to a serial computation, instead of piling more
// concurrent loops onto the fixed worker set.
var ErrBackpressure = sched.ErrBackpressure

// GateStats are the admission gate's counters; see Pool.AdmissionStats.
type GateStats = sched.GateStats

// LoopInfo is a snapshot of one registered loop's fairness state (ID,
// weight, service received); see Pool.LiveLoops.
type LoopInfo = sched.LoopInfo

// WithMaxInFlightLoops bounds how many loops may execute on the pool
// concurrently (the in-flight budget of the admission gate). Submissions
// beyond the bound observe backpressure: For and ForErr degrade to a
// serial inline run on the calling goroutine, TryFor returns
// ErrBackpressure, and ForCtx waits for a slot under its context.
// n <= 0 (the default) leaves the budget unlimited.
func WithMaxInFlightLoops(n int) Option {
	return func(p *Pool) { p.maxInFlight = n }
}

// WithSubmitRate adds a token bucket to the admission gate: at most
// perSecond loop submissions per second on average, with the given burst
// capacity. Rejections behave exactly as for WithMaxInFlightLoops.
// perSecond <= 0 (the default) disables the bucket.
func WithSubmitRate(perSecond float64, burst int) Option {
	return func(p *Pool) { p.submitRate, p.submitBurst = perSecond, burst }
}

// WithPriority sets the loop's cross-loop fairness weight. When several
// loops are live on the pool at once, idle workers are steered to the
// live loop with the smallest served/priority ratio, so a priority-8
// request loop keeps receiving workers while a priority-1 batch loop
// runs beside it — the mechanism that bounds small-loop tail latency
// under a concurrent giant loop. Values below 1 select the default
// weight 1.
func WithPriority(weight int) ForOption {
	return func(o *loop.Options) { o.Priority = weight }
}

// AdmissionStats returns the admission gate's counters; ok is false when
// the pool was built without admission control (no WithMaxInFlightLoops
// or WithSubmitRate option).
func (p *Pool) AdmissionStats() (s GateStats, ok bool) {
	if p.gate == nil {
		return GateStats{}, false
	}
	return p.gate.Stats(), true
}

// LiveLoops snapshots the fairness state of every loop currently
// registered with the pool's steal protocol — per-loop attribution for
// stats endpoints: each entry's ID, weight, and how much steal-protocol
// service it has received.
func (p *Pool) LiveLoops() []LoopInfo { return p.s.LiveLoops() }

// LoopsRegistered returns how many loops have entered the pool's steal
// protocol over its lifetime — a cheap cumulative tenancy counter for
// serving dashboards (LiveLoops is the instantaneous view).
func (p *Pool) LoopsRegistered() int64 { return p.s.LoopsRegistered() }

// TryFor is For with non-blocking admission: if the pool's gate rejects
// the submission it returns ErrBackpressure without executing any
// iteration; otherwise it runs the loop to completion and returns nil.
// On a pool without admission control it is exactly For.
//
//sched:noalloc
func (p *Pool) TryFor(begin, end int, body Body, opts ...ForOption) error {
	if end <= begin {
		return nil
	}
	if p.gate != nil {
		if !p.gate.TryAcquire() {
			return ErrBackpressure
		}
		defer p.gate.Release()
	}
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	r.For(begin, end, body)
	return nil
}

// admitOrInline performs the gated admission of a blocking public loop
// call. It reports true when the gate rejected the submission and the
// caller must degrade to a serial inline run on its own goroutine —
// bounded degradation instead of oversubscription: the pool's worker
// count and the in-flight loop count stay fixed, and the excess
// submission costs only the calling goroutine (which would have blocked
// in the pool anyway). Otherwise a gated caller must release the gate
// when the loop completes.
//
//sched:noalloc
func (p *Pool) admitOrInline() (inline bool) {
	if p.gate == nil || p.gate.TryAcquire() {
		return false
	}
	p.gate.NoteInline()
	return true
}
