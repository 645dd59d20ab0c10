package hybridloop_test

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hybridloop"
)

func TestReduceDeterministicAcrossStrategies(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(1))
	defer pool.Close()
	data := make([]float64, 50000)
	for i := range data {
		data[i] = math.Sin(float64(i))
	}
	var want float64
	first := true
	for _, s := range []hybridloop.Strategy{
		hybridloop.Hybrid, hybridloop.Static, hybridloop.DynamicStealing,
		hybridloop.DynamicSharing, hybridloop.Guided,
	} {
		got := hybridloop.Sum(pool, 0, len(data),
			func(i int) float64 { return data[i] }, hybridloop.WithStrategy(s))
		if first {
			want, first = got, false
			continue
		}
		if got != want {
			t.Fatalf("%v: Sum = %v, want bitwise %v", s, got, want)
		}
	}
}

// TestSumSharedOptions: goroutines passing one options slice with spare
// capacity to Sum must not write into its backing array (run with -race),
// and each still gets the exact sum.
func TestSumSharedOptions(t *testing.T) {
	pool := hybridloop.NewPool(2)
	defer pool.Close()
	shared := make([]hybridloop.ForOption, 1, 4)
	shared[0] = hybridloop.WithChunk(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if got := hybridloop.Sum(pool, 0, 4096, func(i int) float64 { return 1 }, shared...); got != 4096 {
					t.Errorf("Sum = %v, want 4096", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared[:cap(shared)][1] != nil {
		t.Fatal("Sum wrote into the spare capacity of the caller's options")
	}
}

func TestReduceGenericTypes(t *testing.T) {
	pool := hybridloop.NewPool(3)
	defer pool.Close()
	type acc struct {
		min, max int
	}
	got := hybridloop.Reduce(pool, 0, 10000, 128,
		acc{min: 1 << 30, max: -(1 << 30)},
		func(lo, hi int) acc {
			a := acc{min: 1 << 30, max: -(1 << 30)}
			for i := lo; i < hi; i++ {
				v := (i*2654435761 + 17) % 1000
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
			return a
		},
		func(a, b acc) acc {
			if b.min < a.min {
				a.min = b.min
			}
			if b.max > a.max {
				a.max = b.max
			}
			return a
		})
	if got.min < 0 || got.max > 999 || got.min > got.max {
		t.Fatalf("Reduce min/max = %+v", got)
	}
}

func TestReduceEmptyRange(t *testing.T) {
	pool := hybridloop.NewPool(2)
	defer pool.Close()
	got := hybridloop.Reduce(pool, 5, 5, 0, 42,
		func(lo, hi int) int { return 0 },
		func(a, b int) int { return a + b })
	if got != 42 {
		t.Fatalf("empty Reduce = %d, want identity", got)
	}
}

func TestSumMatchesSequential(t *testing.T) {
	pool := hybridloop.NewPool(4)
	defer pool.Close()
	got := hybridloop.Sum(pool, 1, 1001, func(i int) float64 { return float64(i) })
	if got != 500500 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestFor2DCoversSpaceExactlyOnce(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(3))
	defer pool.Close()
	const rows, cols = 61, 83
	var cells [rows][cols]atomic.Int32
	for _, tile := range [][2]int{{0, 0}, {1, 1}, {7, 13}, {64, 64}} {
		for r := range cells {
			for c := range cells[r] {
				cells[r][c].Store(0)
			}
		}
		pool.For2D(0, rows, 0, cols, tile[0], tile[1], func(rlo, rhi, clo, chi int) {
			for r := rlo; r < rhi; r++ {
				for c := clo; c < chi; c++ {
					cells[r][c].Add(1)
				}
			}
		})
		for r := range cells {
			for c := range cells[r] {
				if n := cells[r][c].Load(); n != 1 {
					t.Fatalf("tile %v: cell (%d,%d) visited %d times", tile, r, c, n)
				}
			}
		}
	}
}

func TestFor2DEmpty(t *testing.T) {
	pool := hybridloop.NewPool(2)
	defer pool.Close()
	ran := false
	pool.For2D(3, 3, 0, 10, 4, 4, func(rlo, rhi, clo, chi int) { ran = true })
	pool.For2D(0, 10, 7, 2, 4, 4, func(rlo, rhi, clo, chi int) { ran = true })
	if ran {
		t.Fatal("body ran for empty 2-D space")
	}
}

func TestWithWeightBalancesStatic(t *testing.T) {
	// A triangular workload with weights should give later workers fewer
	// iterations: partition boundaries must shift left relative to the
	// equal split.
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(5))
	defer pool.Close()
	const n = 10000
	tr := hybridloop.NewAffinityTracker(n)
	weight := func(i int) float64 { return float64(i) }
	pool.For(0, n, func(lo, hi int) {}, hybridloop.WithStrategy(hybridloop.Static),
		hybridloop.WithWeight(weight), hybridloop.WithRecorder(tr))
	tr.EndLoop()
	asg := tr.Assignment()
	// Worker 0's partition ends where the weight prefix reaches 1/4 of
	// the total: at i ~ n/2 (sqrt(1/4) of the triangle), not n/4.
	boundary := 0
	for i, w := range asg {
		if w != 0 {
			boundary = i
			break
		}
	}
	if boundary < n/2-500 || boundary > n/2+500 {
		t.Fatalf("weighted boundary at %d, want ~%d", boundary, n/2)
	}
	// And every iteration still executes exactly once under weights for
	// both static and hybrid.
	for _, s := range []hybridloop.Strategy{hybridloop.Static, hybridloop.Hybrid} {
		var count atomic.Int64
		pool.For(0, n, func(lo, hi int) {
			count.Add(int64(hi - lo))
		}, hybridloop.WithStrategy(s), hybridloop.WithWeight(weight))
		if count.Load() != n {
			t.Fatalf("%v with weights covered %d iterations", s, count.Load())
		}
	}
}

func TestQuickFor2DTileSizes(t *testing.T) {
	pool := hybridloop.NewPool(3, hybridloop.WithSeed(9))
	defer pool.Close()
	prop := func(rRaw, cRaw, trRaw, tcRaw uint8) bool {
		rows := int(rRaw)%40 + 1
		cols := int(cRaw)%40 + 1
		tileR := int(trRaw)%45 + 1
		tileC := int(tcRaw)%45 + 1
		var total atomic.Int64
		pool.For2D(0, rows, 0, cols, tileR, tileC, func(rlo, rhi, clo, chi int) {
			total.Add(int64((rhi - rlo) * (chi - clo)))
		})
		return total.Load() == int64(rows*cols)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPanicSurfacesThroughPublicFor(t *testing.T) {
	pool := hybridloop.NewPool(4)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("panic in loop body did not surface")
		}
	}()
	pool.For(0, 1000, func(lo, hi int) {
		if lo >= 500 {
			panic("body boom")
		}
	}, hybridloop.WithChunk(10))
}

func TestTraceRecordsHybridActivity(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(11))
	defer pool.Close()
	tl := hybridloop.NewTraceLog(0)
	const n = 20000
	pool.For(0, n, func(lo, hi int) {}, hybridloop.WithTrace(tl))
	var chunks, iters int64
	var claims int
	for _, s := range tl.Summary() {
		chunks += int64(s.Chunks)
		iters += s.Iterations
		claims += s.Claims
	}
	if iters != n {
		t.Fatalf("trace saw %d iterations, want %d", iters, n)
	}
	if chunks == 0 || claims == 0 {
		t.Fatalf("trace missing chunks (%d) or claims (%d)", chunks, claims)
	}
	// Claims cover all partitions exactly once: R = 4 for P = 4.
	if claims != 4 {
		t.Fatalf("claims = %d, want 4 (R = P = 4)", claims)
	}
	var buf bytes.Buffer
	tl.Render(&buf)
	if !strings.Contains(buf.String(), "events recorded") {
		t.Fatal("render output malformed")
	}
}

func TestSerialCutoffRunsInline(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(13))
	defer pool.Close()
	tl := hybridloop.NewTraceLog(0)
	pool.For(0, 50, func(lo, hi int) {
		if lo != 0 || hi != 50 {
			t.Errorf("cutoff loop split into [%d,%d)", lo, hi)
		}
	}, hybridloop.WithSerialCutoff(64), hybridloop.WithTrace(tl))
	var chunks int
	for _, s := range tl.Summary() {
		chunks += s.Chunks
	}
	if chunks != 1 {
		t.Fatalf("serial-cutoff loop ran as %d chunks", chunks)
	}
	// Above the cutoff the loop must parallelize normally.
	var count atomic.Int64
	pool.For(0, 500, func(lo, hi int) { count.Add(int64(hi - lo)) },
		hybridloop.WithSerialCutoff(64), hybridloop.WithChunk(10))
	if count.Load() != 500 {
		t.Fatalf("above-cutoff loop covered %d iterations", count.Load())
	}
}

func TestForWorkerNestedParallelism(t *testing.T) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(21))
	defer pool.Close()
	var total atomic.Int64
	for _, outer := range []hybridloop.Strategy{
		hybridloop.Hybrid, hybridloop.Guided, hybridloop.DynamicSharing,
	} {
		total.Store(0)
		pool.ForWorker(0, 8, func(w *hybridloop.Worker, lo, hi int) {
			for i := lo; i < hi; i++ {
				hybridloop.For(w, 0, 250, func(l2, h2 int) {
					total.Add(int64(h2 - l2))
				}, hybridloop.WithChunk(16))
			}
		}, hybridloop.WithStrategy(outer), hybridloop.WithChunk(1))
		if total.Load() != 2000 {
			t.Fatalf("outer=%v: nested total = %d, want 2000", outer, total.Load())
		}
	}
	// Three levels deep via ForWorkerNested.
	total.Store(0)
	pool.ForWorker(0, 4, func(w *hybridloop.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			hybridloop.ForWorkerNested(w, 0, 4, func(w2 *hybridloop.Worker, l2, h2 int) {
				for j := l2; j < h2; j++ {
					hybridloop.For(w2, 0, 10, func(l3, h3 int) {
						total.Add(int64(h3 - l3))
					})
				}
			}, hybridloop.WithChunk(1))
		}
	}, hybridloop.WithChunk(1))
	if total.Load() != 160 {
		t.Fatalf("3-level nested total = %d, want 160", total.Load())
	}
}
