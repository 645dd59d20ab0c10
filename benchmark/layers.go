package main

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop"
	"hybridloop/internal/adaptive"
	"hybridloop/internal/core"
	"hybridloop/internal/deque"
	"hybridloop/internal/loop"
	"hybridloop/internal/metrics"
	"hybridloop/internal/sched"
)

// perLayer lists the metrics of single layers, by module name. Every traced
// run prints all of them; one that its workload does not exercise (a probe
// attached elsewhere, a gate counter on an ungated pool) reads 0. Three
// sources, all outside the runtime: counters read through public accessors
// around the untraced epochs, spans of the traced epochs, and probes that
// time a layer's exported functions in isolation.
var perLayer = []metricDef{
	{Name: "api.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "api.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "api.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.op_p50_rel", Unit: "ratio", Better: "lower"},
	{Name: "api.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "api.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "api.serial_op_us", Unit: "us", Better: "lower"},
	{Name: "api.speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "api.empty_for_ns", Unit: "ns", Better: "lower"},
	{Name: "api.empty_for_allocs", Unit: "count", Better: "lower"},
	{Name: "api.empty_forerr_ns", Unit: "ns", Better: "lower"},
	{Name: "api.empty_tryfor_ns", Unit: "ns", Better: "lower"},
	{Name: "api.empty_auto_ns", Unit: "ns", Better: "lower"},
	{Name: "api.metrics_on_ns", Unit: "ns", Better: "lower"},
	{Name: "api.batch_miters_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loop.launch_us_p50", Unit: "us", Better: "lower"},
	{Name: "loop.join_us_p50", Unit: "us", Better: "lower"},
	{Name: "loop.gap_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "loop.chunk_tax_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.empty_for_ns", Unit: "ns", Better: "lower"},
	{Name: "loop.imbalance_frac", Unit: "ratio", Better: "lower"},
	{Name: "loop.body_frac", Unit: "ratio", Better: "higher"},
	{Name: "loop.chunks_per_op", Unit: "count", Better: "lower"},
	{Name: "loop.workers_per_op", Unit: "count", Better: "higher"},
	{Name: "loop.same_core_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.claim_walk_ns", Unit: "ns", Better: "lower"},
	{Name: "core.partitionset_allocs", Unit: "count", Better: "lower"},
	{Name: "deque.takefront_ns", Unit: "ns", Better: "lower"},
	{Name: "deque.stealback_ns", Unit: "ns", Better: "lower"},
	{Name: "deque.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "deque.steal_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.run_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.wake_first_task_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.spawn_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.steal_task_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.fanout_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.steals_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.range_steals_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.failed_sweeps_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.loop_entries_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.parks_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.tasks_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "sched.cores_busy", Unit: "count", Better: "lower"},
	{Name: "sched.gate_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.gate_reject_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.gate_waited_frac", Unit: "ratio", Better: "lower"},
	{Name: "sched.gate_inline_frac", Unit: "ratio", Better: "lower"},
	{Name: "adaptive.decide_fast_ns", Unit: "ns", Better: "lower"},
	{Name: "adaptive.decide_observed_ns", Unit: "ns", Better: "lower"},
	{Name: "adaptive.committed_frac", Unit: "ratio", Better: "higher"},
	{Name: "adaptive.sites", Unit: "count", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "metrics.series", Unit: "count", Better: "lower"},
	{Name: "nas.ep_ms", Unit: "ms", Better: "lower"},
	{Name: "nas.is_ms", Unit: "ms", Better: "lower"},
	{Name: "nas.cg_ms", Unit: "ms", Better: "lower"},
	{Name: "nas.mg_ms", Unit: "ms", Better: "lower"},
	{Name: "nas.ft_ms", Unit: "ms", Better: "lower"},
	{Name: "nas.seq_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "nas.loops_per_pass", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// counters is one reading of the runtime's public counters.
type counters struct {
	stats      hybridloop.Stats
	gate       hybridloop.GateStats
	loops      int64
	batchIters uint64
}

func readCounters(w workload) counters {
	b := w.common()
	c := counters{stats: b.pool.Stats(), loops: b.pool.LoopsRegistered(), batchIters: b.batchIters.Load()}
	c.gate, _ = b.pool.AdmissionStats() // zero on an ungated pool
	return c
}

// counterValues turns the counter deltas over the untraced epochs into
// per-op figures.
func counterValues(vals map[string]float64, m measurement, before, after counters, w workload) {
	ops := float64(m.ops)
	s0, s1 := before.stats, after.stats
	vals["sched.steals_per_op"] = float64(s1.Steals-s0.Steals) / ops
	vals["sched.range_steals_per_op"] = float64(s1.RangeSteals-s0.RangeSteals) / ops
	vals["sched.failed_sweeps_per_op"] = float64(s1.FailedSteals-s0.FailedSteals) / ops
	vals["sched.loop_entries_per_op"] = float64(s1.LoopEntries-s0.LoopEntries) / ops
	vals["sched.parks_per_op"] = float64(s1.Parks-s0.Parks) / ops
	vals["sched.tasks_per_op"] = float64(s1.Tasks-s0.Tasks) / ops
	busy, idle := float64(s1.BusyNanos-s0.BusyNanos), float64(s1.IdleNanos-s0.IdleNanos)
	if busy+idle > 0 {
		vals["sched.busy_frac"] = busy / (busy + idle)
	}
	sums := m.sums()
	vals["sched.cores_busy"] = sums.cpuNs / sums.wallNs
	w.common().loopsPerOp = float64(after.loops-before.loops) / ops

	if admitted := float64(after.gate.Admitted - before.gate.Admitted); admitted > 0 {
		vals["sched.gate_waited_frac"] = float64(after.gate.Waited-before.gate.Waited) / admitted
		vals["sched.gate_inline_frac"] = float64(after.gate.Inline-before.gate.Inline) / admitted
	}
	vals["api.batch_miters_per_s"] = float64(after.batchIters-before.batchIters) / 1e6 / (sums.wallNs / 1e9)

	sites := w.common().pool.TunerSites()
	committed := 0
	for _, s := range sites {
		if s.State == "committed" {
			committed++
		}
	}
	vals["adaptive.sites"] = float64(len(sites))
	if len(sites) > 0 {
		vals["adaptive.committed_frac"] = float64(committed) / float64(len(sites))
	}
}

// apiValues restates the end-to-end figures as times, which the host's speed
// moves with, beside the speedup the untraced epochs of the traced run saw.
func apiValues(vals map[string]float64, m measurement) {
	vals["api.op_p99_us"] = percentileOf(m.latUs(), 0.99)
	vals["api.op_p50_us"] = median(m.latUs())
	vals["api.op_p50_rel"] = m.opP50Rel()
	vals["api.ops_per_s"] = m.opsPerS()
	vals["api.cpu_us_per_op"] = m.sums().cpuNs / 1e3 / float64(m.ops)
	vals["api.serial_op_us"] = m.serialOpNs() / 1e3
	vals["api.speedup_vs_serial"] = m.speedup()
}

// Probes time one layer's exported functions in isolation: the minimum over
// probeRepeats timings of at least 50 ms each.

const (
	probeRepeats = 5
	probeN       = 16384 // the iter_fine loop shape
	probeChunk   = 64
)

// prober times with a least duration per timing.
type prober struct{ min time.Duration }

// probe returns fn's cost in nanoseconds per iteration. fn(iters) must do
// iters units of the probed work.
func (p prober) probe(fn func(iters int)) float64 {
	iters := 1
	for {
		t0 := time.Now()
		fn(iters)
		if d := time.Since(t0); d >= p.min {
			break
		} else if d < p.min/100 {
			iters *= 10
		} else {
			iters = int(float64(iters)*float64(p.min)/float64(d)*1.2) + 1
		}
	}
	best := time.Duration(1 << 62)
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		fn(iters)
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / float64(iters)
}

// allocsPer returns the heap allocations per call of fn.
func allocsPer(fn func()) float64 {
	const calls = 2000
	fn() // warm pools and caches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / calls
}

func emptyBody(lo, hi int) {}

// runProbes runs the probes attached to the workload: each layer is probed
// on the workload where it does most of the work.
func runProbes(vals map[string]float64, workload string, W int, minDur time.Duration) {
	p := prober{minDur}
	switch workload {
	case "iter_fine":
		p.launchPath(vals, W)
	case "skew_coarse":
		p.stealPath(vals, W)
	case "serve_mixed":
		p.servingPath(vals, W)
	}
}

// launchPath covers what an iter_fine op is made of besides its body:
// the public call, internal/loop's launch and per-chunk tax, the claim walk,
// the range slot's owner path and the scheduler's round trip.
func (p prober) launchPath(vals map[string]float64, W int) {
	pool := hybridloop.NewPool(W)
	chunk := hybridloop.WithChunk(probeChunk)
	emptyFor := func() { pool.For(0, probeN, emptyBody, chunk) }
	full := p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			emptyFor()
		}
	})
	vals["api.empty_for_ns"] = full
	vals["api.empty_for_allocs"] = allocsPer(emptyFor)
	vals["api.empty_forerr_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			_ = pool.ForErr(0, probeN, func(lo, hi int) error { return nil }, chunk) // the body never fails
		}
	})
	// One chunk per worker: what is left is launch and join.
	short := p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			pool.For(0, probeChunk*W, emptyBody, chunk)
		}
	})
	vals["loop.chunk_tax_ns"] = (full - short) / float64(probeN/probeChunk-W)
	pool.Close()

	sp := sched.NewPool(W, 1)
	opts := loop.Options{Strategy: loop.Hybrid, Chunk: probeChunk}
	vals["loop.empty_for_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			loop.For(sp, 0, probeN, emptyBody, opts)
		}
	})
	vals["sched.run_roundtrip_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			sp.Run(func(*sched.Worker) {})
		}
	})
	// Submit to first instruction of the task, one way; the median, since a
	// minimum of single events would pick the luckiest wake.
	var wake []float64
	for i := 0; i < 20000; i++ {
		t0 := time.Now()
		var started time.Duration
		sp.Run(func(*sched.Worker) { started = time.Since(t0) })
		wake = append(wake, float64(started.Nanoseconds()))
	}
	vals["sched.wake_first_task_ns"] = median(wake)
	sp.Close()

	claimWalk := func() {
		ps := core.NewPartitionSet(0, probeN, W)
		for w := 0; w < W; w++ {
			c := core.NewClaimer(ps, w)
			for !c.Done() {
				c.Next()
			}
		}
	}
	vals["core.claim_walk_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			claimWalk()
		}
	})
	vals["core.partitionset_allocs"] = allocsPer(claimWalk)

	// The owner path of a published range: one Publish, then windows of one
	// chunk until empty; per TakeFront.
	var slot deque.RangeSlot
	vals["deque.takefront_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i += probeN / probeChunk {
			slot.Publish(0, probeN)
			for {
				if _, _, ok := slot.TakeFront(probeChunk); !ok {
					break
				}
			}
		}
	})
}

// stealPath covers what moves work between workers on skew_coarse:
// steals from a published range against a live owner, the task deque, and
// the scheduler's spawn and steal of single tasks.
func (p prober) stealPath(vals map[string]float64, W int) {
	var slot deque.RangeSlot
	var stop atomic.Bool
	var owner sync.WaitGroup
	owner.Add(1)
	go func() { // the live owner: publishes and consumes from the front
		defer owner.Done()
		for !stop.Load() {
			slot.Publish(0, 1<<30)
			for !stop.Load() {
				if _, _, ok := slot.TakeFront(probeChunk); !ok {
					break
				}
			}
		}
	}()
	vals["deque.stealback_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i += 2 {
			slot.StealBack(probeChunk, 1, 2)
			slot.StealBack(probeChunk, 3, 4)
		}
	})
	stop.Store(true)
	owner.Wait()

	task, group := sched.Task(func(*sched.Worker) {}), &sched.Group{}
	dq := deque.New(sched.Task(nil), sched.RangeTask(nil), (*sched.Group)(nil))
	vals["deque.push_pop_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			dq.PushBottom(task, group, 0)
			dq.PopBottom()
		}
	})
	vals["deque.steal_ns"] = p.probe(func(iters int) {
		const batch = 256
		for i := 0; i < iters; i += batch {
			for k := 0; k < batch; k++ {
				dq.PushBottom(task, group, 0)
			}
			for k := 0; k < batch; k++ {
				dq.Steal()
			}
		}
	})

	sp := sched.NewPool(W, 1)
	noop := func(*sched.Worker) {}
	vals["sched.spawn_wait_ns"] = p.probe(func(iters int) {
		sp.Run(func(w *sched.Worker) {
			var g sched.Group
			for i := 0; i < iters; i++ {
				w.Spawn(&g, noop)
				w.Wait(&g)
			}
		})
	})
	// One producer spawns, the other workers steal: per task handed over.
	vals["sched.steal_task_ns"] = p.probe(func(iters int) {
		sp.Run(func(w *sched.Worker) {
			var g sched.Group
			for i := 0; i < iters; i++ {
				w.Spawn(&g, noop)
			}
			w.Wait(&g)
		})
	})
	sp.Close()
}

// servingPath covers what a serve_mixed request passes besides its
// loop: admission, the tuner, and the metrics plane.
func (p prober) servingPath(vals map[string]float64, W int) {
	chunk := hybridloop.WithChunk(probeChunk)
	emptyForOn := func(pool *hybridloop.Pool, opts ...hybridloop.ForOption) float64 {
		defer pool.Close()
		return p.probe(func(iters int) {
			for i := 0; i < iters; i++ {
				pool.For(0, probeN, emptyBody, opts...)
			}
		})
	}
	gated := hybridloop.NewPool(W, hybridloop.WithMaxInFlightLoops(2*W+2))
	vals["api.empty_tryfor_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			_ = gated.TryFor(0, probeN, emptyBody, chunk) // one caller never fills the gate
		}
	})
	gated.Close()
	vals["api.empty_auto_ns"] = emptyForOn(hybridloop.NewPool(W), hybridloop.WithAuto())
	off := emptyForOn(hybridloop.NewPool(W), chunk)
	on := emptyForOn(hybridloop.NewPool(W, hybridloop.WithMetrics(hybridloop.NewMetricsRegistry())), chunk)
	vals["api.metrics_on_ns"] = on - off

	gate := sched.NewGate(2*W+2, 0, 0)
	vals["sched.gate_acquire_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			gate.TryAcquire()
			gate.Release()
		}
	})
	full := sched.NewGate(1, 0, 0)
	full.TryAcquire()
	vals["sched.gate_reject_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			full.TryAcquire()
		}
	})

	// A committed site answers from the lock-free slot and is observed on
	// one play in 16; an exploring site takes the locked path and a Report on
	// every play.
	obs := adaptive.Observation{Elapsed: 20 * time.Microsecond, Iterations: probeN, Chunks: probeN / probeChunk}
	tcfg := adaptive.Config{Seed: 1, Workers: W, Arms: loop.AutoArms}
	committed := adaptive.NewTuner(tcfg)
	vals["adaptive.decide_fast_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			if d := committed.Decide(0x1000, probeN, probeChunk); d.Observe {
				committed.Report(d, obs)
			}
		}
	})
	// AutoArms offers at least four arms, so a fresh site explores for at
	// least 4*explorePlays plays; a new tuner takes over before it commits.
	const explorePlays = 4096
	tcfg.ExplorePlays = explorePlays
	vals["adaptive.decide_observed_ns"] = p.probe(func(iters int) {
		for done := 0; done < iters; done += 4 * explorePlays {
			exploring := adaptive.NewTuner(tcfg)
			for i := 0; i < min(iters-done, 4*explorePlays); i++ {
				exploring.Report(exploring.Decide(0x1000, probeN, probeChunk), obs)
			}
		}
	})

	h := metrics.NewRegistry().Windowed("probe_seconds", "probe", metrics.L("site", "probe"), nil, metrics.DefaultWindows)
	vals["metrics.observe_ns"] = p.probe(func(iters int) {
		for i := 0; i < iters; i++ {
			h.Observe(1e-4)
		}
	})
}

// scrapeValues times one exposition of the run's registry and counts its
// series.
func scrapeValues(vals map[string]float64, reg *hybridloop.MetricsRegistry) {
	var buf bytes.Buffer
	t0 := time.Now()
	_ = reg.WriteText(&buf) // a bytes.Buffer does not fail
	vals["metrics.scrape_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	series := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	vals["metrics.series"] = float64(series)
}
