package hybridloop

import (
	"net/http"
	"time"

	"hybridloop/internal/loop"
	"hybridloop/internal/metrics"
)

// MetricsRegistry is the pool's metrics plane: label-based counters,
// gauges, and windowed histograms with Prometheus text-format
// exposition. A nil registry is the "metrics off" state — every producer
// in the runtime is a no-op against it — and pools default to nil, so
// the scheduling hot paths are untouched unless WithMetrics is given.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry to pass to WithMetrics
// and mount via MetricsHandler.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsHandler serves r in Prometheus text exposition format; mount it
// at /metrics. A nil registry serves an empty, valid exposition.
func MetricsHandler(r *MetricsRegistry) http.Handler { return metrics.Handler(r) }

// WithMetrics attaches a metrics registry to the pool. Construction
// registers scrape-time collectors for the scheduler's per-worker
// counters, the demand census and parked-worker gauges, the admission
// gate, and the adaptive tuner's per-site state — all read only when the
// registry is scraped, so even a live registry adds no scheduling-path
// cost. Public loop entry points additionally time each loop into
// windowed duration histograms labeled by site and strategy (one cheap
// observation per loop submission, nothing per chunk or iteration).
//
// Call (*MetricsRegistry).Rotate periodically — or RotateEvery — so the
// windowed histograms' recent-percentile views track current behaviour.
func WithMetrics(r *MetricsRegistry) Option {
	return func(p *Pool) { p.mreg = r }
}

// WithLabel names the loop's call site on the metrics plane: the loop's
// duration series carries site=<label> instead of site="". Use one
// static label per call site (like a route name); never derive labels
// from request data — label cardinality is series cardinality.
func WithLabel(label string) ForOption {
	return func(o *loop.Options) { o.Label = label }
}

// registerPoolMetrics wires the per-layer collectors at construction.
func (p *Pool) registerPoolMetrics() {
	if p.mreg == nil {
		return
	}
	p.s.RegisterMetrics(p.mreg)
	p.gate.RegisterMetrics(p.mreg) // nil-safe: ungated pools register nothing
	p.tuner.RegisterMetrics(p.mreg)
}

// loopDurationWindows is the ring size of the per-(site, strategy)
// duration histograms: with a 10s rotation period, about a minute of
// recent history behind the _recent quantile series.
const loopDurationWindows = 6

// loopSeries are the handles of one (site, strategy) series of the loop
// duration and loop count families.
type loopSeries struct {
	dur *metrics.Windowed
	n   *metrics.Counter
}

type loopSeriesKey struct{ site, strategy string }

// seriesKey is the (site, strategy) key of a loop's duration series, read
// from its options before it runs: the strategy the caller asked for, so
// an Auto loop is "auto" whichever arm the tuner plays.
func seriesKey(o *loop.Options) loopSeriesKey {
	return loopSeriesKey{o.Label, o.Strategy.String()}
}

// observeInline records a loop submission the admission gate degraded to
// a serial inline run (the scheduler never saw it, so the options'
// strategy label would be a lie).
func (p *Pool) observeInline(start time.Time) {
	p.observe(loopSeriesKey{"", "inline"}, start)
}

// observe times one loop call into k's series. Callers defer it with
// time.Now() evaluated at the defer statement, so start is the submission
// time, and check p.mreg first, so metrics off costs nothing. The handles
// come from the pool's copy-on-write cache, one atomic load and a map
// probe with no allocation; the registry is asked only for a pair not
// seen before, and as labels are a closed set the cache stops growing.
func (p *Pool) observe(k loopSeriesKey, start time.Time) {
	var s loopSeries
	ok := false
	if m := p.series.Load(); m != nil {
		s, ok = (*m)[k]
	}
	if !ok {
		s = p.addSeries(k)
	}
	s.dur.ObserveSince(start)
	s.n.Inc()
}

// addSeries registers k's series and publishes a cache that holds them.
func (p *Pool) addSeries(k loopSeriesKey) loopSeries {
	p.seriesMu.Lock()
	defer p.seriesMu.Unlock()
	old := p.series.Load()
	if old != nil {
		if s, ok := (*old)[k]; ok {
			return s
		}
	}
	ls := metrics.L("site", k.site, "strategy", k.strategy)
	s := loopSeries{
		dur: p.mreg.Windowed("hybridloop_loop_duration_seconds",
			"wall time of public loop calls, submission to join", ls, nil, loopDurationWindows),
		n: p.mreg.Counter("hybridloop_loops_total", "public loop calls completed", ls),
	}
	m := map[loopSeriesKey]loopSeries{k: s}
	if old != nil {
		for k2, s2 := range *old {
			m[k2] = s2
		}
	}
	p.series.Store(&m)
	return s
}
