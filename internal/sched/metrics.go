package sched

import (
	"strconv"

	"hybridloop/internal/metrics"
)

// RegisterMetrics exposes the pool's counters on r as scrape-time
// collectors. The scheduler keeps maintaining exactly the atomics it
// already maintains for Stats — registration adds zero hot-path cost,
// metrics on or off; everything below is read only when /metrics is
// scraped. Nil-safe: a nil registry registers nothing.
//
// Cardinality: per-worker series are bounded by the pool size, per-loop
// series by the admission gate's in-flight budget (LiveLoops only lists
// currently registered loops).
func (p *Pool) RegisterMetrics(r *metrics.Registry) {
	if r == nil || p == nil {
		return
	}
	workerLabels := make([]metrics.Labels, len(p.workers))
	for i := range p.workers {
		workerLabels[i] = metrics.L("worker", strconv.Itoa(i))
	}

	perWorker := func(name, help string, kind metrics.Kind, field func(Stats) float64) {
		r.OnCollect(name, help, kind, func(emit func(metrics.Labels, float64)) {
			for i, wc := range p.PerWorker() {
				emit(workerLabels[i], field(wc))
			}
		})
	}
	perWorker("hybridloop_sched_tasks_total", "tasks executed per worker", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.Tasks) })
	perWorker("hybridloop_sched_steals_total", "successful deque steals per worker", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.Steals) })
	perWorker("hybridloop_sched_failed_steal_sweeps_total", "full steal sweeps that found nothing, per worker", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.FailedSteals) })
	perWorker("hybridloop_sched_loop_entries_total", "hybrid-loop entries via the steal protocol, per worker", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.LoopEntries) })
	perWorker("hybridloop_sched_range_steals_total", "steal-half range transfers per worker", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.RangeSteals) })
	perWorker("hybridloop_sched_parks_total", "committed park transitions per worker", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.Parks) })
	perWorker("hybridloop_sched_busy_seconds_total", "time in busy bursts per worker (needs time accounting)", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.BusyNanos) / 1e9 })
	perWorker("hybridloop_sched_idle_seconds_total", "time parked per worker (needs time accounting)", metrics.KindCounter,
		func(wc Stats) float64 { return float64(wc.IdleNanos) / 1e9 })

	// Steal distance under a placement (WithPlacement): pool-level totals
	// labeled by distance, covering both steal paths (deque steals and
	// steal-half range transfers) so the local:remote ratio is one query.
	// Pool-level rather than per-worker to bound cardinality at two
	// series; flat pools emit remote = 0.
	distLocal, distRemote := metrics.L("distance", "local"), metrics.L("distance", "remote")
	r.OnCollect("hybridloop_sched_steals_distance_total",
		"deque + range steals by victim distance (local = same socket, remote = cross-socket)",
		metrics.KindCounter,
		func(emit func(metrics.Labels, float64)) {
			s := p.Stats()
			remote := s.RemoteSteals + s.RemoteRangeSteals
			emit(distLocal, float64(s.Steals+s.RangeSteals-remote))
			emit(distRemote, float64(remote))
		})
	r.OnCollect("hybridloop_sched_sockets", "sockets described by the pool's placement", metrics.KindGauge,
		func(emit func(metrics.Labels, float64)) { emit(nil, float64(p.Placement().Sockets())) })

	r.OnCollect("hybridloop_sched_workers", "pool size", metrics.KindGauge,
		func(emit func(metrics.Labels, float64)) { emit(nil, float64(p.P())) })
	r.OnCollect("hybridloop_sched_parked_workers", "workers currently announced parking or parked", metrics.KindGauge,
		func(emit func(metrics.Labels, float64)) { emit(nil, float64(p.ParkedWorkers())) })
	r.OnCollect("hybridloop_sched_demand", "hungry-worker census (failed full sweeps, not yet fed or parked)", metrics.KindGauge,
		func(emit func(metrics.Labels, float64)) { emit(nil, float64(p.DemandCount())) })
	r.OnCollect("hybridloop_sched_loops_registered_total", "loops ever registered with the steal protocol", metrics.KindCounter,
		func(emit func(metrics.Labels, float64)) { emit(nil, float64(p.LoopsRegistered())) })

	// Per-live-loop fairness state. Loop IDs churn, but the series set is
	// bounded at any scrape by the number of registered loops (capped by
	// admission control), and const collectors emit only what exists now.
	r.OnCollect("hybridloop_sched_loop_served_total", "steal-protocol entries served per live loop", metrics.KindGauge,
		func(emit func(metrics.Labels, float64)) {
			for _, li := range p.LiveLoops() {
				emit(metrics.L("loop", strconv.FormatUint(li.ID, 10)), float64(li.Served))
			}
		})
}

// RegisterMetrics exposes the admission gate's counters on r as
// scrape-time collectors; same zero-hot-path-cost contract as the pool's.
func (g *Gate) RegisterMetrics(r *metrics.Registry) {
	if r == nil || g == nil {
		return
	}
	counter := func(name, help string, read func(GateStats) float64) {
		r.OnCollect(name, help, metrics.KindCounter, func(emit func(metrics.Labels, float64)) {
			emit(nil, read(g.Stats()))
		})
	}
	counter("hybridloop_admission_admitted_total", "loop submissions admitted",
		func(s GateStats) float64 { return float64(s.Admitted) })
	counter("hybridloop_admission_rejected_total", "loop submissions rejected (backpressure)",
		func(s GateStats) float64 { return float64(s.Rejected) })
	counter("hybridloop_admission_waited_total", "admissions that blocked before a slot freed",
		func(s GateStats) float64 { return float64(s.Waited) })
	counter("hybridloop_admission_inline_total", "submissions degraded to serial-inline",
		func(s GateStats) float64 { return float64(s.Inline) })
	r.OnCollect("hybridloop_admission_in_flight", "currently admitted, not-yet-released loops", metrics.KindGauge,
		func(emit func(metrics.Labels, float64)) { emit(nil, float64(g.Stats().InFlight)) })
}
