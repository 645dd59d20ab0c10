package loop

import (
	"sync/atomic"
	"time"

	"hybridloop/internal/adaptive"
	"hybridloop/internal/sched"
	"hybridloop/internal/trace"
)

// AutoArms builds the candidate configurations the tuner explores for an
// Auto loop of n iterations on workers workers — the Config.Arms
// callback of the pool tuner. The set covers the strategy choice the
// paper studies ({Hybrid, DynamicStealing, Static, Guided}; the shared-
// counter DynamicSharing is dominated by Guided on every workload in the
// ablation, so it is left out to keep exploration short), the serial
// shortcut for small trip counts, and coarser/finer chunking around the
// paper's default where the default chunk leaves room to scale.
func AutoArms(n, workers int) []adaptive.Arm {
	arms := []adaptive.Arm{
		{Strategy: int(Hybrid), ChunkScale: 1},
		{Strategy: int(DynamicStealing), ChunkScale: 1},
		{Strategy: int(Static), ChunkScale: 1, NoBalance: true},
		{Strategy: int(Guided), ChunkScale: 1},
	}
	if n <= 1<<14 {
		// Small enough that running inline can beat any parallel schedule
		// once per-loop overhead is counted.
		arms = append(arms, adaptive.Arm{ChunkScale: 1, Serial: true, NoBalance: true})
	}
	if DefaultChunk(n, workers) >= 8 {
		arms = append(arms,
			adaptive.Arm{Strategy: int(Hybrid), ChunkScale: 0.25},
			adaptive.Arm{Strategy: int(Hybrid), ChunkScale: 4},
			adaptive.Arm{Strategy: int(DynamicStealing), ChunkScale: 0.25},
			adaptive.Arm{Strategy: int(DynamicStealing), ChunkScale: 4},
		)
	}
	return arms
}

// paddedNanos is an atomic nanosecond counter on its own cache line, so
// concurrent workers timing chunks of one invocation do not false-share.
type paddedNanos struct {
	nanos atomic.Int64
	_     [56]byte
}

// invObs collects one observed Auto play's feedback: executed chunks and
// per-worker busy time, from which finish derives the imbalance signal
// (max − min busy time over participating workers), and the decision and
// counters it reports against. It lives in the loop's frame and is reset
// per play.
type invObs struct {
	start  time.Time
	chunks atomic.Int64
	busy   []paddedNanos // indexed by worker ID
	d      adaptive.Decision
	n      int
	before sched.Stats // the pool's counter totals when the play began
}

func (o *invObs) runTimed(w *sched.Worker, body BodyW, lo, hi int) {
	t0 := time.Now()
	body(w, lo, hi)
	o.busy[w.ID()].nanos.Add(time.Since(t0).Nanoseconds())
	o.chunks.Add(1)
}

// beginAuto consults the tuner and rewrites opts in place with the
// decided concrete strategy, chunk, and serial cutoff. For a play the
// tuner wants observed it returns the play's feedback record, whose
// finish (deferred by workerForW, so it runs even when the body panics)
// reports the invocation's outcome. Without a tuner — a nested free loop
// on a bare sched.Pool — Auto degrades to Hybrid.
//
//sched:noalloc
func beginAuto(w *sched.Worker, begin, end int, opts *Options) *invObs {
	if opts.Tuner == nil {
		opts.Strategy = Hybrid
		return nil
	}
	n := end - begin
	pool := w.Pool()
	d := opts.Tuner.Decide(opts.Site, n, opts.chunk(n, pool.P()))
	opts.Strategy = Strategy(d.Arm.Strategy)
	opts.Chunk = d.Chunk
	if d.SerialCutoff > opts.SerialCutoff {
		opts.SerialCutoff = d.SerialCutoff
	}
	if d.ChunkCostNanos > 0 {
		// The committed arm's chunk-cost estimate seeds the poll stride,
		// so strided strategies skip the online first-chunk measurement.
		opts.pollStride = pollStrideFor(d.ChunkCostNanos)
	}
	if opts.Trace != nil {
		strat := int64(d.Arm.Strategy)
		if d.Arm.Serial {
			strat = -1
		}
		opts.Trace.Add(w.ID(), trace.TuneDecision, strat, int64(d.Chunk))
	}
	if !d.Observe {
		// A steady-state play from the tuner's lock-free fast path: no
		// timing, no counter snapshots, no Report — the invocation runs
		// the committed configuration with zero observation overhead.
		return nil
	}
	o := &opts.frame.obs
	if len(o.busy) != pool.P() {
		//lint:ignore noalloc once per frame: the busy slots of its pool's workers
		o.busy = make([]paddedNanos, pool.P())
	}
	for i := range o.busy {
		o.busy[i].nanos.Store(0)
	}
	o.chunks.Store(0)
	o.d, o.n = d, n
	o.before = pool.Stats()
	o.start = time.Now()
	opts.obs = o
	return o
}

// finish reports the observed play's outcome on pool to opts.Tuner.
//
//sched:noalloc
func (o *invObs) finish(pool *sched.Pool, opts *Options) {
	if opts.Cancel.Cancelled() {
		// A cancelled (or panicked) run measures where the cancel
		// landed, not what the configuration costs: discard the
		// sample so the tuner is never trained on truncated loops.
		opts.Tuner.Discard(o.d)
		return
	}
	after := pool.Stats()
	elapsed := time.Since(o.start)
	// Imbalance over participating workers only: a serial or
	// single-worker run has nothing to balance, so it reports zero
	// rather than penalizing itself against idle workers.
	var minBusy, maxBusy int64
	participants := 0
	for i := range o.busy {
		b := o.busy[i].nanos.Load()
		if b <= 0 {
			continue
		}
		participants++
		if participants == 1 || b < minBusy {
			minBusy = b
		}
		if b > maxBusy {
			maxBusy = b
		}
	}
	var imb time.Duration
	if participants > 1 {
		imb = time.Duration(maxBusy - minBusy)
	}
	opts.Tuner.Report(o.d, adaptive.Observation{
		Elapsed:      elapsed,
		Iterations:   o.n,
		Chunks:       o.chunks.Load(),
		Steals:       after.Steals - o.before.Steals,
		FailedSteals: after.FailedSteals - o.before.FailedSteals,
		RangeSteals:  after.RangeSteals - o.before.RangeSteals,
		LoopEntries:  after.LoopEntries - o.before.LoopEntries,
		Imbalance:    imb,
	})
}
