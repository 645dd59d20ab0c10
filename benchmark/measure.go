package main

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hybridloop"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list;
// TestBenchmarkJSON holds the file to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the runtime sees; every workload
// reports all of them from its untraced run. A bound is the relative
// worsening that counts as a regression.
//
// The two timing metrics are ratios to the benchmark's own serial code, timed
// beside every burst of ops (see pair): the reference host's speed moves by a
// factor of two within minutes, so a time in seconds does not repeat from run
// to run and a ratio taken within milliseconds does. The times themselves are
// per-layer metrics (api.ops_per_s, api.op_p50_us, api.cpu_us_per_op), and so
// is the median op latency as a ratio (api.op_p50_rel): on serve_mixed the
// latencies have two modes and the median jumps between them. setup_s is
// scaled to a host of nominal speed (setUp).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"speedup", "ratio", "higher", 0.25},
	{"cpu_rel", "ratio", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"bytes_per_op", "B", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// undisturbed is the share of a run's pairs, counted from the better end, at
// which the run reports its speedup: the 85th percentile. A burst on W threads
// suffers from a neighbour on the host (a virtual CPU that is not scheduled, a
// slow wake-up) more than the one-thread calibration beside it, so the
// speedups have a tail on the worse side whose weight changes from run to run;
// the better end of the distribution is the runtime on W undisturbed cores.
// Too close to the end, a calibration that was itself disturbed sets the
// value. README.md, "Measured noise", compares the quantiles on two batches of
// runs.
const undisturbed = 0.15

// base holds what every workload shares; the harness fills W, seed and scale
// before the first set-up.
type base struct {
	W     int
	seed  uint64
	scale int

	pool       *hybridloop.Pool
	opsEpoch   int     // ops in one epoch, after scaling
	serialNs   float64 // set-up's serial reference time per op
	nominalNs  float64 // serial time per op on the reference host in a calm spell
	lat        latLog
	pairs      []pairSample
	loopsPerOp float64       // loops registered per op over the untraced epochs
	batchIters atomic.Uint64 // iterations done by serve_mixed's batch tenant

	ms0, ms1 runtime.MemStats
}

func (b *base) common() *base { return b }

func (b *base) closePool() {
	if b.pool != nil {
		b.pool.Close()
		b.pool = nil
	}
}

// scaled divides a per-epoch count by the test scale, keeping it a positive
// multiple of unit.
func (b *base) scaled(n, unit int) int {
	return max(n/b.scale/unit*unit, unit)
}

// pairSample is the unit of measurement: a burst of ops on the pool and,
// immediately before it, a serial calibration — the benchmark's own
// single-goroutine version of the same work.
type pairSample struct {
	ops            int
	serialNs       float64 // serial time of one op, from the calibration
	wallNs, cpuNs  float64 // of the burst
	mallocs, bytes uint64  // of the burst
	p50Rel         float64 // the burst's median op latency / serialNs
}

func (p pairSample) speedup() float64 { return float64(p.ops) * p.serialNs / p.wallNs }

// timePair runs serial and then burst, and returns the serial duration in
// serialNs and the burst's wall time, CPU time and allocations.
func (b *base) timePair(serial, burst func()) pairSample {
	t0 := time.Now()
	serial()
	serialNs := time.Since(t0)
	runtime.ReadMemStats(&b.ms0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	burst()
	wall := time.Since(t1)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&b.ms1)
	return pairSample{
		serialNs: float64(serialNs.Nanoseconds()), wallNs: float64(wall.Nanoseconds()), cpuNs: (cpu1 - cpu0) * 1e9,
		mallocs: b.ms1.Mallocs - b.ms0.Mallocs, bytes: b.ms1.TotalAlloc - b.ms0.TotalAlloc,
	}
}

func (p *pairSample) add(q pairSample) {
	p.serialNs += q.serialNs
	p.wallNs += q.wallNs
	p.cpuNs += q.cpuNs
	p.mallocs += q.mallocs
	p.bytes += q.bytes
}

// record files a pair whose calibration did the serial work of serialOps ops
// and whose burst issued ops ops; the burst's latencies are the samples added
// to the log since the last record.
func (b *base) record(p pairSample, serialOps, ops int) {
	p.ops = ops
	p.serialNs /= float64(serialOps)
	p.p50Rel = median(b.lat.us[b.lat.recorded:]) * 1e3 / p.serialNs
	b.lat.recorded = len(b.lat.us)
	b.pairs = append(b.pairs, p)
}

// pair times one calibration and one burst and files them.
func (b *base) pair(serialOps int, serial func(), ops int, burst func()) {
	b.record(b.timePair(serial, burst), serialOps, ops)
}

// workload is one input set. The harness calls epoch again and again until
// the time is up; everything a workload does in check is off the clock.
type workload interface {
	common() *base
	// sizes names the final workload sizes for the environment stamp.
	sizes() map[string]int
	// clients is the number of goroutines that issue ops.
	clients() int
	// setup builds the pool, generates the inputs from the seed and makes
	// the serial reference pass that yields the expected outputs.
	setup()
	// epoch issues the epoch's fixed number of ops as a fixed number of
	// pairs. t is nil except in the traced epochs of a traced run.
	epoch(t *tracer)
	// check verifies the outputs of the epoch just run and returns the
	// number of ops that failed.
	check() int
	// extra adds the workload's own per-layer values in a traced run.
	extra(vals map[string]float64)
	close()
}

// latLog collects op latencies in microseconds.
type latLog struct {
	us       []float64
	recorded int // samples already filed under a pair
}

// alloc gives the log room for n samples, once for all set-ups of a run, and
// touches every page, so the log is resident from the first set-up on: left
// to fault in as it filled, it made peak_rss_mb land on one of two values 7 MB
// apart depending on when the collector last grew the heap.
func (l *latLog) alloc(n int) {
	if cap(l.us) > 0 {
		return
	}
	l.us = make([]float64, n)
	for i := range l.us {
		l.us[i] = 1
	}
	l.us = l.us[:0]
}

func (l *latLog) add(d time.Duration, ops int) {
	l.us = append(l.us, float64(d.Nanoseconds())/1e3/float64(ops))
}

// mark is a position in a workload's sample logs.
type mark struct{ pairs, lat int }

func (b *base) mark() mark { return mark{len(b.pairs), len(b.lat.us)} }

// rewind drops every sample taken since m.
func (b *base) rewind(m mark) {
	b.pairs, b.lat.us, b.lat.recorded = b.pairs[:m.pairs], b.lat.us[:m.lat], m.lat
}

// measurement is a run of consecutive measured epochs, possibly over several
// set-ups: a view of the workload's sample logs, which the warm-up epochs in
// between leave no trace in.
type measurement struct {
	b        *base
	from, to mark
	epochs   [][2]int // each epoch's range within pairs()
	ops      int      // ops attempted
	failed   int
}

func (m measurement) pairs() []pairSample { return m.b.pairs[m.from.pairs:m.to.pairs] }

func (m measurement) latUs() []float64 { return m.b.lat.us[m.from.lat:m.to.lat] }

// measure runs epochs of w until the deadline or until the tracer's buffers
// are nearly full, and at least one. Between
// epochs it collects garbage and verifies the epoch's outputs; neither is on
// the clock.
func (m *measurement) measure(w workload, until time.Time, t *tracer) {
	b := w.common()
	if m.b == nil {
		m.b, m.from, m.to = b, b.mark(), b.mark()
	}
	for e := 0; e == 0 || (time.Now().Before(until) && !t.nearlyFull()); e++ {
		runtime.GC()
		w.epoch(t)
		m.failed += w.check()
		m.ops += b.opsEpoch
		end := b.mark()
		m.epochs = append(m.epochs, [2]int{m.to.pairs - m.from.pairs, end.pairs - m.from.pairs})
		m.to = end
	}
}

// speedup is the serial time of the ops of a burst over the burst's wall
// time, at the undisturbed quantile over the run's pairs.
func (m measurement) speedup() float64 {
	ps := m.pairs()
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.speedup()
	}
	return percentileOf(xs, 1-undisturbed)
}

// opP50Rel is a burst's median op latency over the serial time of an op.
func (m measurement) opP50Rel() float64 {
	ps := m.pairs()
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.p50Rel
	}
	return percentileOf(xs, undisturbed)
}

// cpuRel is the process CPU time per op of an epoch's bursts over the epoch's
// median serial time of an op, at the median over the run's epochs: a gain
// bought by spinning shows here. It is taken per epoch because the kernel
// credits a running thread's time at its next tick, which a burst of a few
// milliseconds does not outlast.
func (m measurement) cpuRel() float64 {
	ps := m.pairs()
	xs := make([]float64, len(m.epochs))
	for i, e := range m.epochs {
		var cpu, ops float64
		serial := make([]float64, 0, e[1]-e[0])
		for _, p := range ps[e[0]:e[1]] {
			cpu += p.cpuNs
			ops += float64(p.ops)
			serial = append(serial, p.serialNs)
		}
		xs[i] = cpu / ops / median(serial)
	}
	return median(xs)
}

// sums adds up the bursts of the run.
func (m measurement) sums() (s pairSample) {
	for _, p := range m.pairs() {
		s.add(p)
	}
	return s
}

// serialOpNs is the median calibration: the host's speed during the run.
func (m measurement) serialOpNs() float64 {
	ps := m.pairs()
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.serialNs
	}
	return median(xs)
}

// opsPerS is the median over pairs of a burst's ops per second of wall time.
func (m measurement) opsPerS() float64 {
	ps := m.pairs()
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = float64(p.ops) * 1e9 / p.wallNs
	}
	return median(xs)
}

func endToEndValues(m measurement, setupS float64) map[string]float64 {
	s := m.sums()
	return map[string]float64{
		"setup_s":       setupS,
		"speedup":       m.speedup(),
		"cpu_rel":       m.cpuRel(),
		"allocs_per_op": float64(s.mallocs) / float64(m.ops),
		"bytes_per_op":  float64(s.bytes) / float64(m.ops),
		"peak_rss_mb":   peakRSSMB(),
	}
}

func median(xs []float64) float64 { return percentileOf(xs, 0.50) }

// percentileOf returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. An empty xs gives 0.
func percentileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), which
// is what the benchmark driver uses for its spread check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
