// Package hybridloop is a task-parallel runtime for scheduling parallel
// loops on shared-memory multicores, implementing the hybrid scheduling
// scheme of Handleman, Rattew, Lee and Schardl, "A Hybrid Scheduling
// Scheme for Parallel Loops" (2021), together with the standard schemes it
// is evaluated against.
//
// The hybrid scheme first partitions a loop statically — R = 2^k
// partitions, one earmarked per worker — and lets each worker claim
// partitions in a semi-deterministic sequence derived from its worker ID
// (r = i XOR w). Claims are single atomic operations; a worker that loses
// its designated partition falls back to ordinary randomized work
// stealing, and the work inside every partition is itself load balanced by
// stealing. The result keeps the loop affinity of static scheduling on
// iterative applications (the same iterations land on the same workers
// loop after loop) while retaining the provable load balancing of dynamic
// scheduling: a loop of n iterations runs in expected time
// T1/P + O(P + lg n + max span of any iteration).
//
// # Quick start
//
//	pool := hybridloop.NewPool(8)
//	defer pool.Close()
//
//	pool.For(0, len(data), func(lo, hi int) {
//		for i := lo; i < hi; i++ {
//			data[i] = process(data[i])
//		}
//	})
//
// Loops default to the hybrid strategy; pass WithStrategy to compare
// against Static, DynamicStealing (a Cilk-style cilk_for), DynamicSharing
// (OpenMP schedule(dynamic)) or Guided (OpenMP schedule(guided)).
// Arbitrary fork-join task parallelism is available through Pool.Run,
// Worker.Spawn and Worker.Wait.
package hybridloop

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop/internal/adaptive"
	"hybridloop/internal/loop"
	"hybridloop/internal/sched"
)

// Strategy selects how a parallel loop's iterations are scheduled onto
// workers. See the package documentation of each constant.
type Strategy = loop.Strategy

const (
	// Hybrid is the paper's scheme: static partitioning, XOR claiming,
	// work-stealing fallback. The default.
	Hybrid Strategy = loop.Hybrid
	// Static pins the i-th of P equal partitions to worker i, like OpenMP
	// schedule(static): deterministic and cheap, but no load balancing.
	Static Strategy = loop.Static
	// DynamicStealing is dynamic partitioning with randomized work
	// stealing — the classic Cilk cilk_for.
	DynamicStealing Strategy = loop.DynamicStealing
	// DynamicSharing is dynamic partitioning with a central chunk queue,
	// like OpenMP schedule(dynamic, chunk).
	DynamicSharing Strategy = loop.DynamicSharing
	// Guided is work sharing with geometrically decreasing chunks, like
	// OpenMP schedule(guided, chunk).
	Guided Strategy = loop.Guided
	// Auto lets the pool's adaptive autotuner pick the strategy, chunk
	// size, and serial cutoff per call site from runtime feedback: each
	// Auto loop is profiled (cost per iteration, steal rates, busy-time
	// imbalance), candidate configurations are explored a few times in a
	// deterministic seeded order, and the cheapest is committed to — with
	// re-exploration when the observed cost drifts. See WithAuto and
	// Pool.TunerSnapshot.
	Auto Strategy = loop.Auto
)

// Worker is a scheduler worker — the surrogate of a processing core. Loop
// bodies and tasks receive the worker executing them; use it to spawn
// nested work or nested parallel loops.
type Worker = sched.Worker

// Group tracks spawned tasks for a join; Worker.Wait(g) helps execute
// outstanding work instead of blocking.
type Group = sched.Group

// Stats aggregates scheduler counters (tasks run, steals, hybrid loop
// entries); see Pool.Stats.
type Stats = sched.Stats

// TaskPanicError is what a panicking loop body or task re-raises at the
// caller: the original panic value plus the stack of the worker that
// caught it.
type TaskPanicError = sched.TaskPanicError

// Recorder observes which worker executed which iterations; pass one via
// WithRecorder to measure loop affinity.
type Recorder = loop.Recorder

// Body is a parallel loop body. It is invoked with half-open chunks
// [lo, hi) of the iteration space; distinct chunks may run concurrently
// on different workers, and every iteration is covered exactly once.
type Body = loop.Body

// Pool is a work-stealing scheduler with a fixed set of workers.
type Pool struct {
	s     *sched.Pool
	tuner *adaptive.Tuner
	gate  *sched.Gate      // admission control; nil = ungated
	mreg  *MetricsRegistry // metrics plane; nil = metrics off
	// series caches the loop-duration and loop-count handles by (site,
	// strategy), copied on write under seriesMu (see observe).
	series      atomic.Pointer[map[loopSeriesKey]loopSeries]
	seriesMu    sync.Mutex
	strategy    Strategy
	chunk       int
	seed        uint64
	lockThreads bool
	placement   *sched.Placement
	maxInFlight int
	submitRate  float64
	submitBurst int
}

// Placement maps workers to sockets for topology-aware stealing; build
// one with NewPlacement or CompactPlacement and pass it via
// WithPlacement.
type Placement = sched.Placement

// NewPlacement builds a placement from an explicit worker→socket map
// (worker i runs on socket socketOf[i]; socket numbers must be a
// contiguous range starting at 0).
func NewPlacement(socketOf []int) *Placement { return sched.NewPlacement(socketOf) }

// CompactPlacement describes the compact pinning the paper's experiments
// use: the first coresPerSocket workers on socket 0, the next
// coresPerSocket on socket 1, and so on.
func CompactPlacement(sockets, coresPerSocket int) *Placement {
	return sched.CompactPlacement(sockets, coresPerSocket)
}

// Option configures a Pool.
type Option func(*Pool)

// WithSeed fixes the seed of the workers' random number generators,
// making victim selection reproducible.
func WithSeed(seed uint64) Option {
	return func(p *Pool) { p.seed = seed }
}

// WithDefaultStrategy sets the strategy used by For when no per-loop
// override is given. The default is Hybrid.
func WithDefaultStrategy(s Strategy) Option {
	return func(p *Pool) { p.strategy = s }
}

// WithDefaultChunk sets the default chunk size for loops; 0 keeps the
// paper's rule min(2048, N/(8P)).
func WithDefaultChunk(chunk int) Option {
	return func(p *Pool) { p.chunk = chunk }
}

// WithOSThreads locks each worker goroutine to its own OS thread. Use on
// dedicated multicore machines (ideally with threads pinned to cores by
// the OS) so worker identity corresponds to a physical core and the
// hybrid scheme's affinity translates into cache locality. Work then
// always runs on the workers' threads: a caller never stands in for a
// worker (see Run).
func WithOSThreads() Option {
	return func(p *Pool) { p.lockThreads = true }
}

// WithPlacement tells the pool which socket each worker runs on, making
// both steal paths topology-aware: a thief probes victims on its own
// socket first (unbiased rotation) before crossing to remote sockets,
// and a cross-socket range steal transfers a larger fraction of the
// victim's remainder (default ¾ vs the local ½) so the ~515-cycle
// remote-L3 line cost is amortized over more iterations per transfer.
// Combine with WithOSThreads and OS-level thread pinning so worker IDs
// actually correspond to the described cores. Without this option every
// worker is treated as sharing one socket — exactly the old behaviour.
// Steal distance becomes observable via Stats.RemoteSteals /
// RemoteRangeSteals and the metrics plane's steals_distance series.
func WithPlacement(pl *Placement) Option {
	return func(p *Pool) { p.placement = pl }
}

// NewPool creates a pool with the given number of workers and starts
// them; workers <= 0 selects runtime.GOMAXPROCS(0). Close the pool when
// done.
func NewPool(workers int, opts ...Option) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{strategy: Hybrid, seed: 0x484c4f4f50 /* "HLOOP" */}
	for _, o := range opts {
		o(p)
	}
	p.s = sched.NewPoolPlaced(workers, p.seed, p.lockThreads, p.placement)
	// Busy/idle accounting costs two clock reads per busy burst — nothing
	// on the per-task path — and feeds Stats.BusyNanos/IdleNanos plus the
	// tuner's imbalance signal, so it is on for every public pool.
	p.s.SetTimeAccounting(true)
	p.tuner = adaptive.NewTuner(adaptive.Config{
		Seed:    p.seed,
		Workers: p.s.P(),
		Arms:    loop.AutoArms,
	})
	if p.maxInFlight > 0 || p.submitRate > 0 {
		p.gate = sched.NewGate(p.maxInFlight, p.submitRate, p.submitBurst)
		// Room for a frame per admitted loop, and one more waiting out a
		// probe beside each.
		p.s.ReserveFrames(p.maxInFlight)
	}
	p.registerPoolMetrics()
	return p
}

// Workers returns the number of workers in the pool.
func (p *Pool) Workers() int { return p.s.P() }

// Close shuts down the pool's workers. Outstanding For/Run calls must
// have returned.
func (p *Pool) Close() { p.s.Close() }

// Stats returns aggregate scheduler counters since the last ResetStats.
func (p *Pool) Stats() Stats { return p.s.Stats() }

// ResetStats zeroes the scheduler counters.
func (p *Pool) ResetStats() { p.s.ResetStats() }

// Run executes root on a worker and blocks until it returns. Use it for
// fork-join task parallelism (Worker.Spawn / Worker.Wait) or to host
// nested parallel loops via For. When it is the only call in flight on
// the pool, the calling goroutine stands in for an idle worker and runs
// root itself under that worker's identity; beside other calls, or under
// WithOSThreads, a worker goroutine runs it and then hands its processor
// straight back to the caller, unless it had interrupted a loop to run
// root. Loops go through the same path, and there a loop's caller also
// gets the processor from a worker that interrupted a loop of lower
// priority (see WithPriority).
func (p *Pool) Run(root func(w *Worker)) { p.s.Run(root) }

// ForOption configures a single parallel loop.
type ForOption func(*loop.Options)

// WithStrategy overrides the loop's scheduling strategy.
func WithStrategy(s Strategy) ForOption {
	return func(o *loop.Options) { o.Strategy = s }
}

// WithChunk overrides the number of consecutive iterations executed as
// one sequential unit; 0 means min(2048, N/(8P)).
func WithChunk(chunk int) ForOption {
	return func(o *loop.Options) { o.Chunk = chunk }
}

// WithRecorder attaches an affinity recorder to the loop.
func WithRecorder(r Recorder) ForOption {
	return func(o *loop.Options) { o.Recorder = r }
}

// WithSerialCutoff runs loops of at most n iterations inline on the
// calling worker, skipping the scheduling machinery entirely — useful for
// programs whose loop trip counts vary and sometimes collapse to trivial
// sizes (the adaptive-scheduler shortcut in the paper's related work).
func WithSerialCutoff(n int) ForOption {
	return func(o *loop.Options) { o.SerialCutoff = n }
}

// WithAuto hands this loop to the pool's adaptive autotuner — equivalent
// to WithStrategy(Auto). The tuner profiles the call site and converges
// on the cheapest of {Hybrid, DynamicStealing, Static, Guided}, a chunk
// scale, and possibly the serial shortcut; see the Auto constant.
func WithAuto() ForOption {
	return func(o *loop.Options) { o.Strategy = Auto }
}

// callerPC returns the program counter skip logical frames above
// callerPC's caller (0 = the calling function itself).
func callerPC(skip int) uintptr {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) == 0 {
		return 0
	}
	return pcs[0]
}

// start takes a recycled loop frame and applies the pool's defaults and
// opts to its options in place, so neither they nor the ForOptions'
// target are allocated. skip is the number of stack frames above start's
// caller to the user's call site (see apply).
//
//sched:noalloc
func (p *Pool) start(opts []ForOption, skip int) loop.Root {
	r := loop.Acquire(p.s)
	p.apply(r.Options(), opts, skip+1)
	return r
}

// apply writes the pool's defaults and opts into o. skip is the number of
// stack frames above apply's caller to the user's call site, captured as
// the site identity when — and only when — the loop resolved to Auto, so
// fixed-strategy loops pay nothing for the tuner's existence.
//
//sched:noalloc
func (p *Pool) apply(o *loop.Options, opts []ForOption, skip int) {
	o.Strategy, o.Chunk = p.strategy, p.chunk
	for _, fn := range opts {
		fn(o)
	}
	if o.Strategy == Auto {
		o.Tuner = p.tuner
		o.Site = callerPC(skip + 1)
	}
}

// For executes body over the iteration space [begin, end) in parallel and
// returns when every iteration has completed. It must be called from
// outside the pool's workers; inside a running task, use the free
// function For with the current Worker.
//
// On a pool with admission control (WithMaxInFlightLoops/WithSubmitRate),
// a submission the gate rejects degrades to a serial inline run: body is
// invoked once with the whole range on the calling goroutine, bypassing
// the scheduler (and therefore trace, recorder, and tuner) entirely.
// Every iteration still executes exactly once; the pool's concurrency
// stays bounded. Use TryFor to observe the rejection instead.
//
// Unlike the other entries, For still applies its options to a
// loop.Options of its own, which the ForOptions' calls move to the heap,
// and copies them into the loop's frame: one allocation per call. The
// repository benchmark's smoke test requires every workload to allocate,
// and two of them call nothing but For; For moves to start once that
// test accepts a workload that allocates nothing.
func (p *Pool) For(begin, end int, body Body, opts ...ForOption) {
	if end <= begin {
		return
	}
	if p.admitOrInline() {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		body(begin, end)
		return
	} else if p.gate != nil {
		defer p.gate.Release()
	}
	var o loop.Options
	p.apply(&o, opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(&o), time.Now())
	}
	loop.For(p.s, begin, end, body, o)
}

// forSkip is For for wrappers, with its options applied in the frame, so
// that it allocates nothing. Wrappers pass the number of stack frames
// above forSkip's caller to the user's call site (see start).
//
//sched:noalloc
func (p *Pool) forSkip(begin, end int, body Body, opts []ForOption, skip int) {
	if end <= begin {
		return
	}
	if p.admitOrInline() {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		body(begin, end)
		return
	} else if p.gate != nil {
		defer p.gate.Release()
	}
	r := p.start(opts, skip)
	if p.mreg != nil {
		// Arguments are evaluated at the defer statement, so the series
		// key is the options' as the caller set them (an Auto loop is
		// "auto", not the arm the tuner picks), time.Now() captures the
		// submission time, and the observation fires at join.
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	r.For(begin, end, body)
}

// ForEach is For with a per-index body — more convenient, slightly slower
// for very fine-grained loops. The loop frame calls body through an
// adapter bound once per frame, so ForEach allocates nothing.
// Under admission control it degrades to a serial inline run exactly as
// For does.
//
//sched:noalloc
func (p *Pool) ForEach(begin, end int, body func(i int), opts ...ForOption) {
	if end <= begin {
		return
	}
	if p.admitOrInline() {
		if p.mreg != nil {
			defer p.observeInline(time.Now())
		}
		for i := begin; i < end; i++ {
			body(i)
		}
		return
	} else if p.gate != nil {
		defer p.gate.Release()
	}
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	r.ForEach(begin, end, body)
}

// BodyW is a loop body that also receives the worker executing its chunk.
// Bodies that start nested parallel loops or spawn tasks MUST use this
// form and route the nested work through the received worker — chunks run
// on whichever worker claimed or stole them, not on the worker that
// started the loop.
type BodyW = loop.BodyW

// ForWorker is For with a worker-aware body, for bodies containing nested
// parallelism. A worker-aware body cannot run without a worker, so under
// admission control a rejected ForWorker waits for admission instead of
// degrading to an inline run (the gate's in-flight slots turn over as
// loops complete, so the wait is bounded by the backlog, like a
// semaphore).
//
//sched:noalloc
func (p *Pool) ForWorker(begin, end int, body BodyW, opts ...ForOption) {
	if end <= begin {
		return
	}
	if p.gate != nil {
		if err := p.gate.Acquire(context.Background()); err != nil {
			return // unreachable: Background is never done
		}
		defer p.gate.Release()
	}
	r := p.start(opts, 1)
	if p.mreg != nil {
		defer p.observe(seriesKey(r.Options()), time.Now())
	}
	r.ForW(begin, end, body)
}

// ForWorkerNested runs a worker-aware nested loop from inside a task
// executing on w. Like every loop, it runs on a recycled frame, inline on
// w, and allocates nothing.
//
//sched:noalloc
func ForWorkerNested(w *Worker, begin, end int, body BodyW, opts ...ForOption) {
	if end <= begin {
		return
	}
	nested(w, opts).ForW(begin, end, body)
}

// For runs a nested parallel loop from inside a task executing on w, as
// ForWorkerNested does.
//
//sched:noalloc
func For(w *Worker, begin, end int, body Body, opts ...ForOption) {
	if end <= begin {
		return
	}
	nested(w, opts).For(begin, end, body)
}

// nested takes a recycled frame for a nested loop on w and applies opts
// to its options in place, over the Hybrid default, as start does for a
// root loop. A nested loop has no pool defaults and no tuner, so Auto
// runs Hybrid.
//
//sched:noalloc
func nested(w *Worker, opts []ForOption) loop.Root {
	r := loop.AcquireOn(w)
	o := r.Options()
	o.Strategy = Hybrid
	for _, fn := range opts {
		fn(o)
	}
	return r
}

// DefaultChunk exposes the paper's chunk rule min(2048, N/(8P)).
func DefaultChunk(n, p int) int { return loop.DefaultChunk(n, p) }

// TunerSite is one Auto call site's learned profile: its source location,
// trip-count bucket, exploration state, committed configuration, and
// per-arm statistics. See Pool.TunerSites.
type TunerSite = adaptive.SiteSnapshot

// TunerSites returns the adaptive tuner's per-site profiles, sorted by
// source location — the observability surface for Auto: which strategy
// each call site converged on, at what cost, after how many decisions.
func (p *Pool) TunerSites() []TunerSite { return p.tuner.Sites() }

// TunerSnapshot serializes the tuner's learned profiles as JSON. Save it
// at shutdown and feed it to LoadTunerSnapshot in the next run so
// iterative applications skip re-exploration and start on the committed
// configuration (profiles are keyed by file:line plus trip-count bucket,
// so they survive rebuilds).
func (p *Pool) TunerSnapshot() ([]byte, error) { return p.tuner.SnapshotJSON() }

// LoadTunerSnapshot warm-starts the tuner from a TunerSnapshot taken by
// an earlier run. Call it before the first Auto loop; sites that already
// started exploring are not rewritten.
func (p *Pool) LoadTunerSnapshot(data []byte) error { return p.tuner.LoadJSON(data) }
