// Package loop implements the five parallel-loop scheduling strategies the
// paper studies, on top of the work-stealing runtime in internal/sched:
//
//   - Static: the iteration space is split into P equal partitions, each
//     pinned to its designated worker — OpenMP schedule(static) and
//     FastFlow's static mode. Deterministic allocation, no load balancing.
//   - DynamicStealing: the "vanilla" Cilk cilk_for — recursive binary
//     splitting down to a chunk, with randomized work stealing for load
//     balance. Allocation depends entirely on scheduling.
//   - DynamicSharing: OpenMP schedule(dynamic, chunk) — a central shared
//     counter from which every worker grabs fixed-size chunks.
//   - Guided: OpenMP schedule(guided, chunk) — a central counter handing
//     out geometrically decreasing chunks (proportional to remaining/P,
//     never below the minimum chunk).
//   - Hybrid: the paper's contribution — static partitioning into R = 2^k
//     partitions plus the XOR claiming heuristic (internal/core) and the
//     DoHybridLoop steal protocol, with dynamic work stealing *inside*
//     each partition.
//
// All strategies use the paper's chunking rule, chunk = min(2048, N/(8P)),
// unless overridden, so their work efficiency is comparable (Section V,
// "the reason why we separately show Ts/T1").
package loop

import (
	"fmt"
	"time"

	"hybridloop/internal/adaptive"
	"hybridloop/internal/core"
	"hybridloop/internal/sched"
	"hybridloop/internal/trace"
)

// Strategy selects a loop-scheduling scheme.
type Strategy int

const (
	// Static is static partitioning: P equal pinned partitions.
	Static Strategy = iota
	// DynamicStealing is dynamic partitioning with work stealing
	// (vanilla cilk_for).
	DynamicStealing
	// DynamicSharing is dynamic partitioning with work sharing
	// (OpenMP schedule(dynamic)).
	DynamicSharing
	// Guided is guided partitioning with work sharing
	// (OpenMP schedule(guided)).
	Guided
	// Hybrid is the paper's hybrid scheme: static partitioning, the XOR
	// claiming heuristic, and work stealing as fallback.
	Hybrid
	// Auto defers the choice to the per-pool adaptive tuner
	// (internal/adaptive): each call site is profiled online and the
	// tuner picks a concrete strategy, chunk size, and serial cutoff
	// before the loop runs. Requires Options.Tuner; without one, Auto
	// degrades to Hybrid with the default chunk.
	Auto
)

// String returns the name used in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Static:
		return "omp_static"
	case DynamicStealing:
		return "vanilla"
	case DynamicSharing:
		return "omp_dynamic"
	case Guided:
		return "omp_guided"
	case Hybrid:
		return "hybrid"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all implemented strategies in the paper's display order.
var Strategies = []Strategy{Hybrid, DynamicStealing, Static, DynamicSharing, Guided}

// Body is a loop body applied to a range of iterations [begin, end). Bodies
// receive a contiguous range rather than a single index so that tight
// kernels are not forced through a per-iteration function call; apply the
// body index-wise inside if needed.
type Body func(begin, end int)

// BodyW is a loop body that also receives the worker executing the chunk.
// Use it when the body starts nested parallel loops or spawns tasks: those
// operations must go through the *executing* worker, which for every
// strategy other than a serial run differs from the worker that started
// the loop.
type BodyW func(w *sched.Worker, begin, end int)

// Recorder observes which worker executed which iterations; used by the
// affinity experiments (Figure 2). Implementations must be safe for
// concurrent use.
type Recorder interface {
	Record(worker, begin, end int)
}

// Options configures a parallel loop.
type Options struct {
	// Strategy selects the scheduling scheme. Default Hybrid.
	Strategy Strategy
	// Chunk is the number of consecutive iterations executed as one unit.
	// Zero means the paper's default, min(2048, N/(8P)), clamped to >= 1.
	Chunk int
	// Recorder, if non-nil, is notified of every executed chunk.
	Recorder Recorder
	// Weight, if non-nil, gives iteration i's relative cost. Static and
	// Hybrid partition by equal total weight instead of equal count (the
	// annotation-driven extension of the paper's related work); the
	// purely dynamic strategies ignore it.
	Weight func(i int) float64
	// SerialCutoff runs loops of at most this many iterations inline on
	// the calling worker, skipping all scheduling machinery — the
	// tiny-workload shortcut of adaptive schedulers (cf. Thoman et al. in
	// the paper's related work). Zero disables the shortcut.
	SerialCutoff int
	// Priority is the loop's cross-loop fairness weight: when several
	// loops are live on the pool at once, idle workers are steered to the
	// live loop with the smallest served/priority ratio, so a loop with
	// priority 2 is entitled to roughly twice the steal-protocol service
	// of a priority-1 loop under contention. Zero or negative selects the
	// default weight 1. Meaningful only for the registry-probing
	// strategies (Hybrid, DynamicStealing); the team-based strategies pin
	// their whole team up front.
	Priority int
	// Trace, if non-nil, records scheduling events (loop boundaries,
	// claims, chunk executions) for this loop.
	Trace *trace.Log
	// Cancel is the loop's cooperative cancellation token. Every strategy
	// polls it once per scheduling chunk: a tripped token makes workers
	// skip the remaining chunks, abandon published range descriptors, and
	// drain unclaimed hybrid partitions without executing their bodies, so
	// the loop's join completes within about one chunk per worker. Nil
	// selects a loop-private token, which a captured body panic still
	// trips (so a panicking loop halts its surviving workers); callers
	// that want external cancellation (errors, context deadlines) supply
	// their own and trip it themselves.
	Cancel *sched.Canceller
	// Tuner drives the Auto strategy: the pool's adaptive autotuner,
	// consulted per invocation for the concrete configuration and fed the
	// invocation's outcome. Ignored unless Strategy == Auto.
	Tuner *adaptive.Tuner
	// Label is a caller-chosen name for the loop site, used as the "site"
	// label on the metrics plane's loop-duration series. Empty selects the
	// pool-level default series. Labels must come from a small closed set
	// (one per loop call site, like a route name) — never derive them from
	// request data.
	Label string
	// Site identifies the loop's call site (caller PC) for the tuner.
	// Zero means "unknown site": all unattributed Auto loops of the same
	// trip-count bucket share one profile.
	Site uintptr

	// obs, when non-nil, collects this invocation's per-worker busy time
	// and chunk count for the tuner. Internal: set by the Auto resolution
	// in WorkerForW only.
	obs *invObs
	// pollStride is the per-chunk check stride (see pacer.go): the
	// cancel/demand/inject polls run every pollStride-th chunk. Zero means
	// "no estimate yet" — striding strategies time their first chunk and
	// derive it online. Internal: set from the tuner's chunk-cost estimate
	// by beginAuto only.
	pollStride int32
	// frame is the recycled frame the loop runs on, whose descriptor,
	// partition set, team state, token and Auto feedback it uses in place
	// of allocating its own. Internal: set by Acquire for every loop, root
	// or nested.
	frame *frame
}

// DefaultChunk returns the paper's default chunk size min(2048, N/(8P)),
// at least 1.
func DefaultChunk(n, p int) int {
	c := n / (8 * p)
	if c > 2048 {
		c = 2048
	}
	if c < 1 {
		c = 1
	}
	return c
}

func (o *Options) chunk(n, p int) int {
	if o.Chunk > 0 {
		return o.Chunk
	}
	return DefaultChunk(n, p)
}

// For executes body over [begin, end) on pool using the options' strategy.
// It must be called from outside the pool; use WorkerFor from inside a
// running task. The loop runs on a recycled frame (see frame), so in the
// steady state it allocates nothing.
//
//sched:noalloc
func For(pool *sched.Pool, begin, end int, body Body, opts Options) {
	if end <= begin {
		return
	}
	start(Acquire(pool), &opts).For(begin, end, body)
}

// WorkerFor is For callable from inside a task running on w (nested
// loops). The loop runs inline on w, on a recycled frame like a root
// loop's, so in the steady state it allocates nothing.
//
//sched:noalloc
func WorkerFor(w *sched.Worker, begin, end int, body Body, opts Options) {
	if end <= begin {
		return
	}
	start(AcquireOn(w), &opts).For(begin, end, body)
}

// ForW is For with a worker-aware body.
//
//sched:noalloc
func ForW(pool *sched.Pool, begin, end int, body BodyW, opts Options) {
	if end <= begin {
		return
	}
	start(Acquire(pool), &opts).ForW(begin, end, body)
}

// WorkerForW is WorkerFor with a worker-aware body.
//
//sched:noalloc
func WorkerForW(w *sched.Worker, begin, end int, body BodyW, opts Options) {
	if end <= begin {
		return
	}
	start(AcquireOn(w), &opts).ForW(begin, end, body)
}

// workerForW is the core every loop form funnels into, run on the loop's
// frame with the frame's options, which it may rewrite (Auto resolution,
// the default cancel token).
//
//sched:noalloc
func workerForW(w *sched.Worker, begin, end int, body BodyW, opts *Options) {
	if end <= begin {
		return
	}
	if opts.Trace != nil {
		opts.Trace.Add(w.ID(), trace.LoopStart, int64(begin), int64(end))
		defer opts.Trace.Add(w.ID(), trace.LoopEnd, int64(begin), int64(end))
	}
	if opts.Strategy == Auto {
		// Resolve Auto into a concrete strategy/chunk/cutoff before
		// dispatch; an observed play's finish (run before the deferred
		// LoopEnd) reports the invocation's outcome back to the tuner.
		if o := beginAuto(w, begin, end, opts); o != nil {
			defer o.finish(w.Pool(), opts)
		}
	}
	// A panic unwinding out of the strategy dispatch must also trip the
	// token. A strategy captures its own share's panics into the loop's
	// group, like every other participant's, so the group's BindCancel hook
	// halts the rest and the join re-raises only once they have finished;
	// what unwinds here is that re-raise or a serial loop's body. Registered
	// after beginAuto so it runs before finish, which discards
	// the truncated sample when it observes the tripped token.
	defer func() {
		if r := recover(); r != nil {
			opts.Cancel.Cancel(sched.ErrPanicked)
			panic(r)
		}
	}()
	if end-begin <= opts.SerialCutoff {
		runChunk(w, body, opts, begin, end)
		return
	}
	if opts.Cancel == nil {
		// Every parallel loop gets a token, even without external
		// cancellation: the Group hook and the recover above route body
		// panics through it so the other workers stop within one chunk
		// instead of grinding through the remaining iterations. It is the
		// frame's.
		opts.Cancel = opts.frame.cancel
	} else if opts.Cancel.Cancelled() {
		// Already cancelled (a context that expired before the loop
		// started, or a nested loop under a tripped outer token): run
		// nothing.
		return
	}
	switch opts.Strategy {
	case Static, DynamicSharing, Guided:
		teamRun(w, begin, end, opts)
	case DynamicStealing:
		stealingFor(w, begin, end, body, opts)
	case Hybrid:
		hybridFor(w, begin, end, body, opts)
	default:
		//lint:ignore noalloc unreachable for a valid Strategy
		panic(fmt.Sprintf("loop: unknown strategy %d", int(opts.Strategy)))
	}
}

// runChunk executes one contiguous chunk, polling the cancellation token
// first. A tripped token skips the chunk entirely — no body call, no
// Chunk trace event — which is the check granularity of the cancellation
// protocol for the strategies that call runChunk per chunk; the strided
// strategies call execChunk directly and poll at their stride boundary
// instead (see pacer.go).
func runChunk(w *sched.Worker, body BodyW, opts *Options, lo, hi int) {
	if opts.Cancel.Cancelled() {
		if opts.Trace != nil {
			opts.Trace.Add(w.ID(), trace.Cancel, int64(lo), int64(hi))
		}
		return
	}
	execChunk(w, body, opts, lo, hi)
}

// execChunk executes one contiguous chunk with optional recording and
// tracing, without polling cancellation. For Auto invocations (opts.obs
// non-nil) the chunk is timed into the executing worker's busy slot —
// two clock reads per chunk, paid only by observed tuner plays.
func execChunk(w *sched.Worker, body BodyW, opts *Options, lo, hi int) {
	if opts.Recorder != nil {
		opts.Recorder.Record(w.ID(), lo, hi)
	}
	if opts.Trace != nil {
		opts.Trace.Add(w.ID(), trace.Chunk, int64(lo), int64(hi))
	}
	if o := opts.obs; o != nil {
		o.runTimed(w, body, lo, hi)
		return
	}
	body(w, lo, hi)
}

// stealingFor is the cilk_for strategy, lowered lazily: instead of
// eagerly spawning the binary tree of lg(n/chunk) range splits into the
// deque, the initiating worker publishes its remaining range in a
// steal-half descriptor and consumes it one chunk at a time; idle workers
// discover the loop through the registry probe and CAS off the upper half
// of the biggest published remainder on demand. When no thief shows up
// the loop runs with zero per-split deque traffic.
//
//sched:noalloc
func stealingFor(w *sched.Worker, begin, end int, body BodyW, opts *Options) {
	pool := w.Pool()
	chunk := opts.chunk(end-begin, pool.P())
	if end-begin <= chunk {
		runChunk(w, body, opts, begin, end)
		return
	}
	h := &opts.frame.h
	h.register(w, nil, body, opts, chunk)
	// Unregister even if Wait re-raises a body panic, so the registry never
	// holds a dead loop.
	defer h.unregister(pool)
	// Protected, as a thief's stolen half is: a panicking body abandons the
	// rest of the range (runOwned's unwind path) and is re-raised by the
	// Wait, after every thief has finished its half.
	//lint:ignore noalloc Protect does not retain fn, so the closure stays on the stack
	h.g.Protect(func() { h.rs.runOwned(w, begin, end) })
	w.Wait(&h.g)
}

// teamRun runs a team strategy on the loop's frame, the OpenMP "parallel
// region" model: the frame's member task is pinned to every other worker,
// and the calling worker runs its own member inline, so every team
// member runs the strategy's scheduling loop itself (teamMember). Static
// pins no member to a worker whose part is empty. The loop's range and
// body are the frame's, which run set.
//
//sched:noalloc
func teamRun(w *sched.Worker, begin, end int, opts *Options) {
	f := opts.frame
	pool := w.Pool()
	p := pool.P()
	if opts.Strategy == Static {
		if len(f.parts) != p {
			//lint:ignore noalloc once per frame: a part per worker of its pool
			f.parts = make([]core.Range, p)
		}
		core.WeightedSplitInto(core.Range{Begin: begin, End: end}, f.parts, opts.Weight)
	} else {
		f.chunk = opts.chunk(end-begin, p)
		f.next.Store(int64(begin))
	}
	f.team.BindCancel(opts.Cancel)
	for i := 0; i < p; i++ {
		if i != w.ID() && (opts.Strategy != Static || !f.parts[i].Empty()) {
			pool.SpawnOn(i, &f.team, f.member)
		}
	}
	// Protected: a panicking body is re-raised by the Wait, after the rest
	// of the team has finished.
	//lint:ignore noalloc Protect does not retain fn, so the closure stays on the stack
	f.team.Protect(func() { f.teamMember(w) })
	w.Wait(&f.team)
}

// teamMember is worker w's share of the team loop on f: Static's part w,
// or grabs from the shared counter.
//
//sched:noalloc
func (f *frame) teamMember(w *sched.Worker) {
	switch f.opts.Strategy {
	case Static:
		if part := f.parts[w.ID()]; !part.Empty() {
			runChunk(w, f.body, &f.opts, part.Begin, part.End)
		}
	case DynamicSharing:
		f.share(w)
	default:
		f.guide(w)
	}
}

// share is OpenMP schedule(dynamic, chunk) for one team member: it
// repeatedly grabs fixed-size chunks from the shared counter. The cancel
// and inject polls run once per poll stride of grabs rather than per grab
// (see pacer.go); each member derives its stride from its own first chunk
// when the tuner gave no estimate.
//
//sched:noalloc
func (f *frame) share(w *sched.Worker) {
	pool, opts, chunk, end := w.Pool(), &f.opts, f.chunk, f.end
	stride := opts.pollStride
	countdown := stride
	polls := 0 // this worker's ServeInjected count
	if opts.Cancel.Cancelled() {
		// Cancelled before this worker's first grab: poison the shared
		// counter so teammates between polls observe an exhausted loop
		// on their next grab; the first worker through records the
		// abandoned tail.
		f.poison(w)
		return
	}
	for {
		lo := int(f.next.Add(int64(chunk))) - chunk
		if lo >= end {
			return
		}
		hi := min(lo+chunk, end)
		if stride == 0 {
			t0 := time.Now()
			execChunk(w, f.body, opts, lo, hi)
			stride = pollStrideFor(time.Since(t0).Nanoseconds())
			countdown = stride
		} else {
			execChunk(w, f.body, opts, lo, hi)
		}
		if countdown--; countdown > 0 {
			continue
		}
		countdown = stride
		if opts.Cancel.Cancelled() {
			f.poison(w)
			return
		}
		// Cross-loop latency fairness, as in rangeSet.runOwned: a team
		// worker grinding a long shared counter serves pending
		// submissions between windows.
		if pool.InjectPending() {
			polls = pool.ServeInjected(w, opts.Priority, polls)
		}
	}
}

// guide is OpenMP schedule(guided, chunk) for one team member: chunks
// shrink in proportion to the remaining iterations divided by the team
// size, never below the minimum chunk. The shared position advances under
// CAS so chunk sizing and claiming are atomic together. Guided keeps its
// per-grab polls instead of the pacer's stride: the grab sizes decrease
// geometrically from remaining/2P, so early polls are amortized over huge
// chunks by construction and the small-grab tail is exactly where
// per-grab responsiveness is wanted.
//
//sched:noalloc
func (f *frame) guide(w *sched.Worker) {
	pool, opts, end := w.Pool(), &f.opts, f.end
	p := pool.P()
	polls := 0 // this worker's ServeInjected count
	for {
		if opts.Cancel.Cancelled() {
			f.poison(w)
			return
		}
		lo64 := f.next.Load()
		lo := int(lo64)
		if lo >= end {
			return
		}
		size := max((end-lo+2*p-1)/(2*p), f.chunk)
		hi := min(lo+size, end)
		if !f.next.CompareAndSwap(lo64, int64(hi)) {
			continue
		}
		runChunk(w, f.body, opts, lo, hi)
		if pool.InjectPending() {
			polls = pool.ServeInjected(w, opts.Priority, polls)
		}
	}
}

// poison exhausts a cancelled team loop's shared counter, so teammates
// between polls find nothing left on their next grab; the first member
// through records the abandoned tail.
//
//sched:noalloc
func (f *frame) poison(w *sched.Worker) {
	if old := f.next.Swap(int64(f.end)); int(old) < f.end && f.opts.Trace != nil {
		f.opts.Trace.Add(w.ID(), trace.Cancel, old, int64(f.end))
	}
}
