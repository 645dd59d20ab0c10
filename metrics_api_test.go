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
