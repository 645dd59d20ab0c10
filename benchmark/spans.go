package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"hybridloop"
)

// Spans are recorded from the benchmark's own files only. A call span wraps
// each public call (Pool.For, TryFor, ForCtx, ForErr, Reduce, a NAS kernel);
// a chunk span wraps each invocation of the benchmark-owned loop body and
// has its call as parent. The runtime says which worker runs a chunk through
// the public Recorder hook, which it calls on the worker's goroutine just
// before the body; the body then stamps its span into that worker's buffer.

const (
	// chunkBufCap bounds one worker's span buffer (32 bytes a span, touched
	// only as far as it fills). The largest traced phase, iter_fine, records
	// about 1.5 M chunk spans, at times nearly all on one worker; a full
	// buffer drops spans and counts them.
	chunkBufCap = 1 << 21
	callBufCap  = 1 << 17
	// spanFileLimit caps the spans written to the file; every span is
	// analysed, the file holds the run's first calls in full.
	spanFileLimit = 100_000
)

var callNames = []string{"For", "TryFor", "ForCtx", "ForErr", "Reduce", "EP", "IS", "CG", "MG", "FT"}

const (
	callFor = iota
	callTryFor
	callForCtx
	callForErr
	callReduce
	callEP
	callIS
	callCG
	callMG
	callFT
)

type chunkSpan struct {
	start, end int64 // ns since the tracer's base
	call       int32 // id of the parent call span, which is also the op's id
	lo, hi     int32 // iterations covered
	worker     int8
}

type callSpan struct {
	start, end int64
	id         int32
	n          int32 // trip count; 0 when the call's bodies are not the benchmark's
	kind       uint8
}

// The buffers are padded so two workers' append cursors never share a line.
type chunkBuf struct {
	spans []chunkSpan
	_     [40]byte
}

type callBuf struct {
	spans []callSpan
	_     [40]byte
}

type tracer struct {
	base    time.Time
	chunks  []chunkBuf // one per worker
	calls   []callBuf  // one per client
	dropped atomic.Int64
}

func newTracer(workers, clients int) *tracer {
	t := &tracer{base: time.Now(), chunks: make([]chunkBuf, workers), calls: make([]callBuf, clients)}
	for i := range t.chunks {
		t.chunks[i].spans = make([]chunkSpan, 0, chunkBufCap)
	}
	for i := range t.calls {
		t.calls[i].spans = make([]callSpan, 0, callBufCap)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// nearlyFull reports whether some buffer has less than a fifth of its room
// left, several epochs' worth on every workload; the traced phase then ends
// early rather than drop spans. A nil tracer is never full.
func (t *tracer) nearlyFull() bool {
	if t == nil {
		return false
	}
	for i := range t.chunks {
		if len(t.chunks[i].spans) > chunkBufCap*4/5 {
			return true
		}
	}
	for i := range t.calls {
		if len(t.calls[i].spans) > callBufCap*4/5 {
			return true
		}
	}
	return false
}

// callTrace is one client's handle on the tracer. A client has one call in
// flight at a time, so a callTrace is reused from call to call. It is the
// Recorder of its client's traced calls.
type callTrace struct {
	t      *tracer
	client int
	seq    int32
	cur    callSpan
	// workerOf[k] is the worker the runtime announced for the chunk that
	// contains iteration k. Distinct chunks of one call cover distinct
	// iterations, so workers write distinct elements.
	workerOf []int8
	// aff, when set, scores each call against the client's previous one.
	aff     *hybridloop.AffinityTracker
	sameSum float64
	sameN   int
}

func (t *tracer) client(client, maxTrip int, affinity bool) *callTrace {
	c := &callTrace{t: t, client: client, workerOf: make([]int8, maxTrip)}
	if affinity {
		c.aff = hybridloop.NewAffinityTracker(maxTrip)
	}
	return c
}

// begin opens a call span of the given kind over n iterations.
func (c *callTrace) begin(kind uint8, n int) {
	id := int32(c.client) + c.seq*int32(len(c.t.calls))
	c.seq++
	c.cur = callSpan{id: id, n: int32(n), kind: kind, start: c.t.now()}
}

// end closes the call span opened by begin.
func (c *callTrace) end() {
	c.cur.end = c.t.now()
	buf := &c.t.calls[c.client]
	if len(buf.spans) == cap(buf.spans) {
		c.t.dropped.Add(1)
	} else {
		buf.spans = append(buf.spans, c.cur)
	}
	if c.aff != nil {
		if frac := c.aff.EndLoop(); c.seq > 1 {
			c.sameSum += frac
			c.sameN++
		}
	}
}

// sameCore reports the mean share of iterations that ran on the same worker
// as in the client's previous traced call — the paper's Fig. 2 number.
func (c *callTrace) sameCore(vals map[string]float64) {
	if c != nil && c.sameN > 0 {
		vals["loop.same_core_frac"] = c.sameSum / float64(c.sameN)
	}
}

// Record implements hybridloop.Recorder.
func (c *callTrace) Record(worker, lo, hi int) {
	for k := lo; k < hi; k++ {
		c.workerOf[k] = int8(worker)
	}
	if c.aff != nil {
		c.aff.Record(worker, lo, hi)
	}
}

// stamp closes a chunk span that started at t0 and covered [lo, hi); key is
// an iteration the runtime announced for this chunk (lo, except under Reduce,
// whose loop runs over blocks).
func (c *callTrace) stamp(key, lo, hi int, t0 int64) {
	end := c.t.now()
	w := c.workerOf[key]
	buf := &c.t.chunks[w]
	if len(buf.spans) == cap(buf.spans) {
		c.t.dropped.Add(1)
		return
	}
	buf.spans = append(buf.spans, chunkSpan{start: t0, end: end, call: c.cur.id, lo: int32(lo), hi: int32(hi), worker: w})
}

// body wraps a benchmark-owned loop body so each invocation leaves a span.
func (c *callTrace) body(fn func(lo, hi int)) func(lo, hi int) {
	return func(lo, hi int) {
		t0 := c.t.now()
		fn(lo, hi)
		c.stamp(lo, lo, hi, t0)
	}
}

// traceSummary is what analyze derives from the spans of a run.
type traceSummary struct {
	workers, calls, spans                 int
	callUs, launchUs, joinUs, fanoutUs    []float64
	gapNs, selfUs                         []float64
	imbalanceSum                          float64
	bodyNs, callNs                        float64 // over calls that have chunk spans
	chunkedCalls, chunkCount, workerCount int
	tilingErrors, containErrors           int
}

type interval struct{ start, end int64 }

// unionLen is the total length covered by the intervals, which are sorted
// by start; overlapping intervals count once.
func unionLen(sorted []interval) int64 {
	var total int64
	curEnd := int64(-1 << 62)
	for _, iv := range sorted {
		if iv.start > curEnd {
			total += iv.end - iv.start
			curEnd = iv.end
		} else if iv.end > curEnd {
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	return parent.end - parent.start - unionLen(children)
}

// tiles reports whether the chunks' iteration ranges cover [0, n) exactly
// once. The caller's slice keeps its order.
func tiles(chunks []chunkSpan, n int32) bool {
	chunks = append([]chunkSpan(nil), chunks...)
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].lo < chunks[j].lo })
	next := int32(0)
	for _, c := range chunks {
		if c.lo != next || c.hi <= c.lo {
			return false
		}
		next = c.hi
	}
	return next == n
}

// spanIndex is every span of a run in the order analysis and the file want:
// calls by start, each call's chunks by start.
type spanIndex struct {
	calls  []callSpan
	chunks map[int32][]chunkSpan // by parent call id
}

func (t *tracer) index() spanIndex { return spanIndex{t.allCalls(), t.chunksByCall()} }

func (t *tracer) allCalls() []callSpan {
	var calls []callSpan
	for i := range t.calls {
		calls = append(calls, t.calls[i].spans...)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })
	return calls
}

// chunksByCall returns every chunk span grouped under its parent's id, each
// group in start order.
func (t *tracer) chunksByCall() map[int32][]chunkSpan {
	var all []chunkSpan
	for i := range t.chunks {
		all = append(all, t.chunks[i].spans...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].call != all[j].call {
			return all[i].call < all[j].call
		}
		return all[i].start < all[j].start
	})
	groups := map[int32][]chunkSpan{}
	for lo := 0; lo < len(all); {
		hi := lo
		for hi < len(all) && all[hi].call == all[lo].call {
			hi++
		}
		groups[all[lo].call] = all[lo:hi:hi]
		lo = hi
	}
	return groups
}

// analyze derives the span-based per-layer figures and checks, from outside
// the runtime, that each traced call's chunks tile its trip count exactly
// once and lie inside the call.
func (t *tracer) analyze(ix spanIndex, workers int) traceSummary {
	s := traceSummary{workers: workers}
	if t.dropped.Load() > 0 {
		// Calls with dropped spans cannot be told from broken ones.
		return s
	}
	groups := ix.chunks
	busy := make([]int64, workers)
	first := make([]int64, workers)
	last := make([]int64, workers)
	for _, call := range ix.calls {
		s.calls++
		s.spans++
		s.callUs = append(s.callUs, float64(call.end-call.start)/1e3)
		chunks := groups[call.id]
		if call.n == 0 {
			continue
		}
		if len(chunks) == 0 {
			s.tilingErrors++
			continue
		}
		s.spans += len(chunks)
		s.chunkedCalls++
		s.chunkCount += len(chunks)
		for w := range busy {
			busy[w], first[w], last[w] = 0, -1, -1
		}
		ivs := make([]interval, len(chunks))
		firstStart, lastEnd := chunks[0].start, chunks[0].end
		for i, c := range chunks { // in start order
			ivs[i] = interval{c.start, c.end}
			if c.start < call.start || c.end > call.end {
				s.containErrors++
			}
			lastEnd = max(lastEnd, c.end)
			w := c.worker
			busy[w] += c.end - c.start
			if first[w] < 0 {
				first[w] = c.start
			} else {
				s.gapNs = append(s.gapNs, float64(c.start-last[w]))
			}
			last[w] = c.end
		}
		var sum, maxBusy, lastFirst int64
		participants := 0
		for w := range busy {
			sum += busy[w]
			maxBusy = max(maxBusy, busy[w])
			if first[w] >= 0 {
				participants++
				lastFirst = max(lastFirst, first[w])
			}
		}
		s.workerCount += participants
		mean := float64(sum) / float64(workers)
		s.imbalanceSum += (float64(maxBusy) - mean) / mean
		s.bodyNs += float64(sum)
		s.callNs += float64(call.end - call.start)
		s.launchUs = append(s.launchUs, float64(firstStart-call.start)/1e3)
		s.joinUs = append(s.joinUs, float64(call.end-lastEnd)/1e3)
		s.fanoutUs = append(s.fanoutUs, float64(lastFirst-firstStart)/1e3)
		s.selfUs = append(s.selfUs, float64(selfTime(interval{call.start, call.end}, ivs))/1e3)
		if !tiles(chunks, call.n) {
			s.tilingErrors++
		}
	}
	return s
}

func spanValues(vals map[string]float64, s traceSummary) {
	vals["trace.spans"] = float64(s.spans)
	vals["api.call_us_p50"] = percentileOf(s.callUs, 0.50)
	if s.chunkedCalls == 0 {
		return
	}
	n := float64(s.chunkedCalls)
	vals["loop.launch_us_p50"] = percentileOf(s.launchUs, 0.50)
	vals["loop.join_us_p50"] = percentileOf(s.joinUs, 0.50)
	vals["loop.gap_ns_p50"] = percentileOf(s.gapNs, 0.50)
	vals["loop.imbalance_frac"] = s.imbalanceSum / n
	vals["loop.body_frac"] = s.bodyNs / (float64(s.workers) * s.callNs)
	vals["loop.chunks_per_op"] = float64(s.chunkCount) / n
	vals["loop.workers_per_op"] = float64(s.workerCount) / n
	vals["sched.fanout_us_p50"] = percentileOf(s.fanoutUs, 0.50)
}

// writeFile writes the spans as one JSON object: the environment stamp and
// a "spans" array of {name, id, parent, op, worker, start_ns, end_ns, lo,
// hi}. Calls are written whole, in start order, up to spanFileLimit spans.
func (ix spanIndex) writeFile(dir, workload string, stamp envStamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriterSize(f, 1<<20)
	stampJSON, err := json.Marshal(stamp)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "{\"env\":%s,\n\"spans\":[\n", stampJSON)
	written := 0
	var line []byte
	emit := func(name string, id, parent, op int64, worker int, start, end int64, lo, hi int32) {
		line = line[:0]
		if written > 0 {
			line = append(line, ",\n"...)
		}
		line = append(line, `{"name":"`...)
		line = append(line, name...)
		line = append(line, `","id":`...)
		line = strconv.AppendInt(line, id, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, parent, 10)
		line = append(line, `,"op":`...)
		line = strconv.AppendInt(line, op, 10)
		line = append(line, `,"worker":`...)
		line = strconv.AppendInt(line, int64(worker), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, end, 10)
		line = append(line, `,"lo":`...)
		line = strconv.AppendInt(line, int64(lo), 10)
		line = append(line, `,"hi":`...)
		line = strconv.AppendInt(line, int64(hi), 10)
		line = append(line, '}')
		w.Write(line) // bufio keeps the first error for Flush
		written++
	}
	for _, call := range ix.calls {
		chunks := ix.chunks[call.id]
		if written+1+len(chunks) > spanFileLimit {
			break
		}
		// Span ids: a call's id is its op id shifted left; its chunks
		// follow it. Id 0 is "no parent".
		callID := (int64(call.id) + 1) << 20
		emit(callNames[call.kind], callID, 0, int64(call.id), -1, call.start, call.end, 0, call.n)
		for i, c := range chunks {
			emit("chunk", callID+int64(i)+1, callID, int64(call.id), int(c.worker), c.start, c.end, c.lo, c.hi)
		}
	}
	fmt.Fprintf(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
