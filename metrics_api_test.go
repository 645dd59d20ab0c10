package hybridloop_test

import (
	"bytes"
	"sync"
	"testing"

	"hybridloop"
	"hybridloop/internal/metrics"
)

// TestLoopMetricsConcurrentCallers: callers on several goroutines, whose
// labels the pool first sees concurrently, get every loop counted once in
// its own (site, strategy) series. Run with -race: the pool's series
// cache is written by whichever caller sees a pair first.
func TestLoopMetricsConcurrentCallers(t *testing.T) {
	reg := hybridloop.NewMetricsRegistry()
	pool := hybridloop.NewPool(2, hybridloop.WithMetrics(reg))
	defer pool.Close()
	const callers, loops = 4, 50
	sites := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < loops; k++ {
				for _, s := range sites {
					pool.For(0, 1024, func(lo, hi int) {}, hybridloop.WithLabel(s))
				}
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		key := `hybridloop_loops_total{site="` + s + `",strategy="hybrid"}`
		if v, ok := sc.Value(key); v != callers*loops {
			t.Errorf("%s = %v (present %v), want %d", key, v, ok, callers*loops)
		}
	}
}

// TestLoopSeriesKeys pins the (site, strategy) keys of the loop series
// while the options live in the recycled frame, where the Auto resolution
// rewrites the strategy in place: the key is taken from the options as the
// caller set them. An Auto Sum and an Auto ForErr stay strategy="auto"
// whichever arm the tuner plays, a labelled For keeps its label, a loop
// on a gated pool keeps its strategy, and a call the gate degrades to an
// inline run is strategy="inline". Each count is exact.
func TestLoopSeriesKeys(t *testing.T) {
	reg := hybridloop.NewMetricsRegistry()
	pool := hybridloop.NewPool(2, hybridloop.WithMetrics(reg), hybridloop.WithMaxInFlightLoops(1))
	defer pool.Close()
	const loops = 40
	auto := hybridloop.WithAuto()
	one := func(i int) float64 { return 1 }
	for k := 0; k < loops; k++ {
		if got := hybridloop.Sum(pool, 0, 5000, one, auto); got != 5000 {
			t.Fatalf("Sum = %v, want 5000", got)
		}
		_ = pool.ForErr(0, 5000, func(lo, hi int) error { return nil }, auto, hybridloop.WithLabel("fallible"))
		pool.For(0, 4096, func(lo, hi int) {}, hybridloop.WithLabel("route"))
	}
	// The one in-flight slot is taken while the outer loop runs, so every
	// inner For degrades to an inline run on the outer loop's worker.
	pool.ForWorker(0, loops, func(w *hybridloop.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			pool.For(0, 16, func(lo, hi int) {})
		}
	}, hybridloop.WithChunk(1))
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		`hybridloop_loops_total{site="",strategy="auto"}`:         loops,
		`hybridloop_loops_total{site="fallible",strategy="auto"}`: loops,
		`hybridloop_loops_total{site="route",strategy="hybrid"}`:  loops,
		`hybridloop_loops_total{site="",strategy="hybrid"}`:       1,
		`hybridloop_loops_total{site="",strategy="inline"}`:       loops,
	} {
		if v, ok := sc.Value(key); v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}
}
