package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hybridloop"
	"hybridloop/internal/rng"
)

// serve_mixed: W closed-loop clients issue small loops of four API kinds
// against one gated, metrics-on pool that also serves an endless stream of
// low-priority batch loops. It uses the scheduler the other way round from the
// single-caller workloads: external submit, direct handoff, inject-yield,
// deficit fairness, admission, the tuner's fast path.

const (
	serveBurst    = 200  // requests per client and pair: about 13 ms
	serveCalib    = 16   // serial passes over the (kind, size) table per pair: about 2 ms
	servePairs    = 25   // pairs per epoch
	serveSerial   = 2000 // serial passes over the table in set-up's reference pass
	serveNominal  = 9000 // ns per serial request on the reference host, typically
	serveMinLog   = 10   // request sizes 2^10 .. 2^14 items
	serveMaxLog   = 14
	serveSizes    = serveMaxLog - serveMinLog + 1
	serveKinds    = 4
	servePriority = 8
	serveTryChunk = 256
	serveBlock    = 1024 // Sum's fixed block size, which fixes its summation order
	// batchN is the trip count of the batch tenant's loop. At 2^20 (2 ms a
	// loop) the workers never park while a loop runs, the client goroutines
	// get no P until it ends, and a run settles in one of two regimes a
	// factor of six apart; at the largest request size the latencies are
	// unimodal and the runs repeat.
	batchN = 1 << serveMaxLog
)

const (
	kindTryFor = iota
	kindForCtx
	kindForErr
	kindSum
)

type request struct{ kind, sizeLog uint8 }

// serveSchedule is the seeded request schedule of one epoch: every (kind,
// size) pair equally often, so the work of an epoch does not depend on the
// seed, in an order and a split over clients that do.
func serveSchedule(seed uint64, ops int) []request {
	reqs := make([]request, ops)
	for i := range reqs {
		pair := i % (serveKinds * serveSizes)
		reqs[i] = request{kind: uint8(pair % serveKinds), sizeLog: uint8(serveMinLog + pair/serveKinds)}
	}
	g := rng.NewXoshiro256(seed)
	for i := len(reqs) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	return reqs
}

// mix64 is the per-item work of a request: two rounds of multiply-xorshift.
func mix64(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

type serveClient struct {
	acc   atomic.Uint64 // the request's checksum; chunks add in any order
	lat   []float64
	fails int
	ctx   context.Context
	ct    *callTrace

	// The bodies and options of the client's requests, built once by prepare
	// so that a burst allocates nothing of the benchmark's own.
	traced                 bool
	body                   func(lo, hi int)
	bodyErr                func(lo, hi int) error
	sumItem                func(i int) float64
	opts, tryOpts, sumOpts []hybridloop.ForOption
	_                      [64]byte
}

type serveMixed struct {
	base
	salt     uint64
	reqs     []request
	cl       []*serveClient
	wantSum  [serveSizes]uint64
	wantF    [serveSizes]float64
	reg      *hybridloop.MetricsRegistry
	failed   int
	mix      func(uint64) uint64 // the smoke test swaps in a broken one
	cancel   context.CancelFunc
	tracerOf *tracer

	// A calibration must have the host to itself: the harness sets batchPause,
	// the batch tenant says on batchIdle that it stands still between two of
	// its loops, and waits on batchGo.
	batchPause atomic.Bool
	batchIdle  chan struct{}
	batchGo    chan struct{}
	batchStop  atomic.Bool
	batchDone  chan struct{}

	calibSum [serveSizes]uint64
	calibF   [serveSizes]float64
}

func (w *serveMixed) sizes() map[string]int {
	return map[string]int{
		"clients": w.W, "ops_per_epoch": w.opsEpoch, "ops_per_pair": serveBurst * w.W, "serial_ops_per_pair": serveCalib * 2 * serveSizes, "min_items": 1 << serveMinLog, "max_items": 1 << serveMaxLog,
		"priority": servePriority, "try_chunk": serveTryChunk, "max_in_flight": 2*w.W + 2, "batch_n": batchN,
	}
}

func (w *serveMixed) clients() int { return w.W }

// checksum is the work of a For-kind request over [lo, hi): an
// order-independent sum, so chunks may add theirs in any order.
func checksum(mix func(uint64) uint64, salt uint64, lo, hi int) uint64 {
	var s uint64
	for i := lo; i < hi; i++ {
		s += mix(uint64(i) ^ salt)
	}
	return s
}

// item is the per-index body of a Sum request, a float in [0, 1).
func item(mix func(uint64) uint64, salt uint64, i int) float64 {
	return float64(mix(uint64(i)^salt)>>40) * (1.0 / (1 << 24))
}

func (w *serveMixed) checksum(lo, hi int) uint64 { return checksum(w.mix, w.salt, lo, hi) }

func (w *serveMixed) setup() {
	w.opsEpoch, w.nominalNs = w.scaled(servePairs, 1)*serveBurst*w.W, serveNominal
	w.salt = rng.NewSplitMix64(w.seed).Next()
	w.reqs = serveSchedule(w.seed, w.opsEpoch)
	w.reg = hybridloop.NewMetricsRegistry()
	// The gate is on the path of every request and never full: at most W
	// requests and the batch loop are in flight.
	w.pool = hybridloop.NewPool(w.W, hybridloop.WithSeed(w.seed),
		hybridloop.WithMetrics(w.reg), hybridloop.WithMaxInFlightLoops(2*w.W+2))
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.cl = make([]*serveClient, w.W)
	for c := range w.cl {
		w.cl[c] = &serveClient{ctx: ctx, lat: make([]float64, 0, serveBurst)}
		w.prepare(w.cl[c], false)
	}
	w.lat.alloc(1 << 20)
	w.failed = 0

	// Serial reference pass: the expected result of every (kind, size), and,
	// repeated, the host's speed during this set-up.
	passes := max(1, serveSerial/w.scale)
	t0 := time.Now()
	for k := 0; k < passes; k++ {
		w.wantSum, w.wantF = serialTable(w.salt)
	}
	w.serialNs = float64(time.Since(t0).Nanoseconds()) / float64(passes*2*serveSizes)

	w.batchStop.Store(false)
	w.batchDone, w.batchIdle, w.batchGo = make(chan struct{}), make(chan struct{}), make(chan struct{})
	go w.batchTenant()
}

// serialTable is the serial version of the requests, one of every size as a
// checksum and one as a float sum — ten requests' work, all kinds costing
// about the same. It uses the reference mix, not w.mix.
func serialTable(salt uint64) (sums [serveSizes]uint64, fs [serveSizes]float64) {
	for s := 0; s < serveSizes; s++ {
		n := 1 << (serveMinLog + s)
		sums[s] = checksum(mix64, salt, 0, n)
		var total float64
		for lo := 0; lo < n; lo += serveBlock {
			var blk float64
			for i := lo; i < lo+serveBlock; i++ {
				blk += item(mix64, salt, i)
			}
			total += blk
		}
		fs[s] = total
	}
	return sums, fs
}

// calibrate is the serial side of a pair; the batch tenant stands still.
func (w *serveMixed) calibrate() {
	for k := 0; k < serveCalib; k++ {
		w.calibSum, w.calibF = serialTable(w.salt)
	}
}

// batchTenant is the endless priority-1 loop beside the requests. It stops
// within a chunk of batchStop being set.
func (w *serveMixed) batchTenant() {
	defer close(w.batchDone)
	var sink atomic.Uint64
	body := func(lo, hi int) {
		if w.batchStop.Load() {
			return
		}
		sink.Add(w.checksum(lo, hi))
		w.batchIters.Add(uint64(hi - lo))
	}
	for !w.batchStop.Load() {
		if w.batchPause.Load() {
			w.batchIdle <- struct{}{}
			<-w.batchGo
			continue
		}
		w.pool.For(0, batchN, body, hybridloop.WithPriority(1), hybridloop.WithLabel("batch"))
	}
}

func (w *serveMixed) epoch(t *tracer) {
	if t != nil && w.tracerOf != t {
		w.tracerOf = t
		for c, cl := range w.cl {
			cl.ct = t.client(c, 1<<serveMaxLog, false)
			w.prepare(cl, true)
		}
	}
	per := w.opsEpoch / w.W
	for at := 0; at < per; at += serveBurst {
		// The batch tenant stands still during the calibration and starts
		// again with the burst.
		w.batchPause.Store(true)
		<-w.batchIdle
		p := w.timePair(w.calibrate, func() {
			w.batchPause.Store(false)
			w.batchGo <- struct{}{}
			var wg sync.WaitGroup
			for c, cl := range w.cl {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.client(cl, w.reqs[c*per+at:c*per+at+serveBurst])
				}()
			}
			wg.Wait()
		})
		for _, cl := range w.cl {
			w.lat.us = append(w.lat.us, cl.lat...)
			cl.lat = cl.lat[:0]
			w.failed += cl.fails
			cl.fails = 0
		}
		w.record(p, serveCalib*2*serveSizes, serveBurst*w.W)
	}
}

// prepare builds the bodies and options of a client's requests, with or
// without spans.
func (w *serveMixed) prepare(cl *serveClient, traced bool) {
	prio := hybridloop.WithPriority(servePriority)
	cl.traced = traced
	cl.body = func(lo, hi int) { cl.acc.Add(w.checksum(lo, hi)) }
	cl.bodyErr = func(lo, hi int) error { cl.acc.Add(w.checksum(lo, hi)); return nil }
	cl.sumItem = func(i int) float64 { return item(w.mix, w.salt, i) }
	cl.opts = []hybridloop.ForOption{prio}
	cl.tryOpts = []hybridloop.ForOption{prio, hybridloop.WithChunk(serveTryChunk)}
	cl.sumOpts = []hybridloop.ForOption{prio, hybridloop.WithAuto()}
	if traced {
		ct := cl.ct
		rec := hybridloop.WithRecorder(ct)
		cl.opts, cl.tryOpts, cl.sumOpts = append(cl.opts, rec), append(cl.tryOpts, rec), append(cl.sumOpts, rec)
		plain := cl.body
		cl.body = ct.body(plain)
		cl.bodyErr = func(lo, hi int) error { t0 := ct.t.now(); plain(lo, hi); ct.stamp(lo, lo, hi, t0); return nil }
	}
}

// client issues its share of a burst's requests one after another: the
// loop is closed, a slow reply delays the client's next request.
func (w *serveMixed) client(cl *serveClient, reqs []request) {
	p := w.pool
	for _, r := range reqs {
		n := 1 << r.sizeLog
		size := r.sizeLog - serveMinLog
		cl.acc.Store(0)
		var err error
		var sum float64
		t0 := time.Now()
		if cl.traced {
			cl.ct.begin(uint8(callTryFor+r.kind), n)
		}
		switch r.kind {
		case kindTryFor:
			err = p.TryFor(0, n, cl.body, cl.tryOpts...)
		case kindForCtx:
			err = p.ForCtx(cl.ctx, 0, n, cl.body, cl.opts...)
		case kindForErr:
			err = p.ForErr(0, n, cl.bodyErr, cl.opts...)
		case kindSum:
			if cl.traced {
				// Sum is Reduce over blocks of 1024 with a per-index body;
				// the traced run calls Reduce itself so the block body, which
				// is the benchmark's, can stamp its span. The runtime
				// announces blocks, the body sees items.
				ct := cl.ct
				sum = hybridloop.Reduce(p, 0, n, serveBlock, 0.0, func(lo, hi int) float64 {
					t0 := ct.t.now()
					var s float64
					for i := lo; i < hi; i++ {
						s += cl.sumItem(i)
					}
					ct.stamp(lo/serveBlock, lo, hi, t0)
					return s
				}, func(a, b float64) float64 { return a + b }, cl.sumOpts...)
			} else {
				sum = hybridloop.Sum(p, 0, n, cl.sumItem, cl.sumOpts...)
			}
		}
		if cl.traced {
			cl.ct.end()
		}
		cl.lat = append(cl.lat, float64(time.Since(t0).Nanoseconds())/1e3)
		ok := err == nil
		if r.kind == kindSum {
			ok = ok && math.Float64bits(sum) == math.Float64bits(w.wantF[size])
		} else {
			ok = ok && cl.acc.Load() == w.wantSum[size]
		}
		if !ok {
			cl.fails++
		}
	}
}

// check reports the requests of the epoch whose result differed from the
// (kind, size) table; the comparison itself was made as each reply arrived.
// The epoch's last calibration must have reproduced the table too.
func (w *serveMixed) check() int {
	failed := w.failed
	if w.calibSum != w.wantSum || w.calibF != w.wantF {
		failed++
	}
	w.failed = 0
	return failed
}

func (w *serveMixed) extra(vals map[string]float64) { scrapeValues(vals, w.reg) }

func (w *serveMixed) close() {
	if w.pool == nil {
		return
	}
	w.batchStop.Store(true)
	<-w.batchDone
	w.cancel()
	w.closePool()
}
