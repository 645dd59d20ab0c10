// Package metrics is the runtime's metrics plane: label-based counters,
// gauges, and fixed-bucket histograms with Prometheus text-format
// exposition — the systematic measurement infrastructure that "OpenMP
// Loop Scheduling Revisited" argues schedule selection demands, and that
// production operation of the multi-tenant serving mode requires.
//
// The design follows two rules born from the repository's benchmark
// discipline:
//
//  1. Nil is off. Every producer holds a possibly-nil *Registry (or a
//     possibly-nil instrument obtained from one) and all methods on nil
//     receivers are no-ops, so a pool built without metrics pays exactly
//     one nil check per already-slow event and zero on per-chunk paths.
//
//  2. Scrape-time collection beats hot-path double counting. The
//     scheduler, admission gate, and autotuner already maintain atomic
//     counters for their own purposes; those layers register CollectFunc
//     callbacks that emit constant samples when the registry is scraped,
//     so even a live registry leaves the scheduling hot paths untouched.
//     Direct instruments (Counter/Gauge/Histogram and their label-vector
//     forms) exist for event-driven producers whose events are already
//     slow-path: loop start/end, park edges, trace post-processing.
//
// Label cardinality is the producer's responsibility: labels must come
// from small closed sets (worker IDs, strategy names, user-chosen loop
// site labels, quantile ranks). Never label by request, iteration, or
// loop instance ID — per-live-loop series are permissible only because
// admission control bounds how many loops are live at once.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	// KindSummary is used for pre-aggregated quantile series (the
	// windowed aggregator's recent-percentile view).
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// Labels is an ordered list of label name/value pairs. Order is part of
// a series' identity within this package (producers use a fixed order
// per family, so identical label sets always collide correctly), and
// makes exposition deterministic without sorting maps.
type Labels []Label

// Label is one name/value pair.
type Label struct{ Name, Value string }

// L builds Labels from alternating name, value strings:
// L("worker", "3", "kind", "steal"). Panics on an odd count
// (programming error).
func L(pairs ...string) Labels {
	if len(pairs)%2 != 0 {
		panic("metrics: L requires an even number of strings")
	}
	ls := make(Labels, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		ls = append(ls, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return ls
}

// key renders the labels as a map key / exposition fragment:
// `name="value",...` with value escaping per the Prometheus text format.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing int64. The zero value is unusable;
// obtain counters from a Registry. All methods are nil-safe no-ops.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the level by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// series is one exposed time series: a label set plus its instrument.
type series struct {
	labels Labels
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	win    *Windowed
}

// family is a named group of series sharing a kind and help string.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.RWMutex
	byKey  map[string]*series
	series []*series // insertion order, for deterministic exposition
}

func (f *family) lookup(labels Labels) (*series, bool) {
	k := labels.key()
	f.mu.RLock()
	s, ok := f.byKey[k]
	f.mu.RUnlock()
	if ok {
		return s, true
	}
	return nil, false
}

func (f *family) getOrCreate(labels Labels, mk func() *series) *series {
	k := labels.key()
	f.mu.RLock()
	s, ok := f.byKey[k]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.byKey[k]; ok {
		return s
	}
	s = mk()
	s.labels = append(Labels(nil), labels...)
	f.byKey[k] = s
	f.series = append(f.series, s)
	return s
}

// snapshotSeries copies the series slice for lock-free iteration.
func (f *family) snapshotSeries() []*series {
	f.mu.RLock()
	out := append([]*series(nil), f.series...)
	f.mu.RUnlock()
	return out
}

// Sample is one constant scrape-time measurement emitted by a
// CollectFunc.
type Sample struct {
	Labels Labels
	Value  float64
}

// CollectFunc emits constant samples for one family at scrape time. The
// emit callback must only be used during the call.
type CollectFunc func(emit func(labels Labels, value float64))

// collector is a scrape-time const-sample family.
type collector struct {
	name string
	help string
	kind Kind
	fn   CollectFunc
}

// Registry holds metric families. A nil *Registry is the "metrics off"
// state: every method is a no-op and every instrument constructor
// returns nil (whose methods are in turn no-ops), so producers never
// branch beyond a nil check.
//
// Lookup is lock-light: family and series maps are guarded by RWMutexes
// taken in read mode on the steady-state path, and producers are
// expected to resolve instruments once and cache the handles — With on a
// vector is for setup and slow paths, not per-iteration use.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	order      []*family // registration order
	collectors []*collector
	windowed   []*Windowed // rotation targets (see Rotate)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) familyFor(name, help string, kind Kind) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: family %q reregistered as %v, was %v", name, kind, f.kind))
		}
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok = r.families[name]; ok {
		return f
	}
	f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter returns the counter for name+labels, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	f := r.familyFor(name, help, KindCounter)
	s := f.getOrCreate(labels, func() *series { return &series{ctr: &Counter{}} })
	return s.ctr
}

// Gauge returns the gauge for name+labels, creating it if needed.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	f := r.familyFor(name, help, KindGauge)
	s := f.getOrCreate(labels, func() *series { return &series{gauge: &Gauge{}} })
	return s.gauge
}

// Histogram returns the histogram for name+labels with the given bucket
// upper bounds (used only on first creation of the family's series;
// callers must use consistent buckets per family).
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.familyFor(name, help, KindHistogram)
	s := f.getOrCreate(labels, func() *series { return &series{hist: NewHistogram(buckets)} })
	return s.hist
}

// Windowed returns the windowed histogram for name+labels: a histogram
// whose samples land in a rotating ring of windows (see window.go),
// giving bounded-memory recent-percentile views on top of the cumulative
// exposition. windows is the ring size; buckets as for Histogram.
func (r *Registry) Windowed(name, help string, labels Labels, buckets []float64, windows int) *Windowed {
	if r == nil {
		return nil
	}
	f := r.familyFor(name, help, KindHistogram)
	var created *Windowed
	s := f.getOrCreate(labels, func() *series {
		created = NewWindowed(buckets, windows)
		return &series{win: created}
	})
	if created != nil {
		r.mu.Lock()
		r.windowed = append(r.windowed, created)
		r.mu.Unlock()
	}
	return s.win
}

// OnCollect registers a scrape-time const-sample family: fn is invoked
// on every scrape and emits the family's current samples. This is how
// layers that already keep their own atomic counters (sched.Stats, the
// admission gate, the autotuner) expose them with zero added hot-path
// cost.
func (r *Registry) OnCollect(name, help string, kind Kind, fn CollectFunc) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, &collector{name: name, help: help, kind: kind, fn: fn})
	r.mu.Unlock()
}

// Rotate advances every windowed histogram registered with the registry
// by one window (see Windowed.Rotate). Call it periodically — directly,
// or via RotateEvery — so long-running pools keep bounded recent history.
func (r *Registry) Rotate() {
	if r == nil {
		return
	}
	r.mu.RLock()
	ws := append([]*Windowed(nil), r.windowed...)
	r.mu.RUnlock()
	for _, w := range ws {
		w.Rotate()
	}
}

// snapshotFamilies returns the family list in registration order.
func (r *Registry) snapshotFamilies() ([]*family, []*collector) {
	r.mu.RLock()
	fs := append([]*family(nil), r.order...)
	cs := append([]*collector(nil), r.collectors...)
	r.mu.RUnlock()
	return fs, cs
}

// sortedSamples sorts const samples by label key for deterministic
// exposition (collect funcs may emit from map iteration).
func sortedSamples(samples []Sample) []Sample {
	sort.SliceStable(samples, func(i, j int) bool {
		return samples[i].Labels.key() < samples[j].Labels.key()
	})
	return samples
}
