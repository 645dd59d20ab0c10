package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hybridloop"
)

// AutoWorkload is one micro-workload of the Auto-vs-fixed ablation: a
// loop of N iterations whose iteration i costs Units(i) spin units.
type AutoWorkload struct {
	Name  string
	N     int
	Units func(i int) int
}

// AutoMicroWorkloads returns the three canonical shapes the ablation
// compares on, mirroring the paper's microbenchmark axes: uniform
// iterations (static affinity should win or tie), a skewed linear ramp
// (load balancing should win), and a fine-grained loop (scheduling
// overhead dominates, chunking and the serial shortcut matter).
func AutoMicroWorkloads() []AutoWorkload {
	return []AutoWorkload{
		{Name: "uniform", N: 2048, Units: func(i int) int { return 400 }},
		// 100..800 units, linear: the last iterations cost 8x the first.
		{Name: "skewed", N: 2048, Units: func(i int) int { return 100 + (700*i)/2048 }},
		{Name: "fine", N: 1 << 15, Units: func(i int) int { return 8 }},
	}
}

// spin burns roughly `units` multiply-adds and returns a value the
// caller must store, so the compiler cannot remove the work.
func spin(units int, seed float64) float64 {
	x := seed
	for i := 0; i < units; i++ {
		x = x*1.0000001 + 0.9999991
	}
	return x
}

// AutoResult is one workload's row of the ablation.
type AutoResult struct {
	Workload string
	// FixedNs maps each fixed strategy's display name to its median
	// ns/iter over the second half of its invocations, past warmup.
	FixedNs map[string]float64
	// BestFixed / BestNs identify the cheapest fixed strategy.
	BestFixed string
	BestNs    float64
	// AutoNs is Auto's converged cost: the median over the last quarter
	// of its invocations, after exploration has settled.
	AutoNs float64
	// AutoChoice names the configuration Auto committed to ("hybrid",
	// "vanilla x4 chunk", "serial", ... or "exploring" if it never
	// committed within the run).
	AutoChoice string
	// VsBestPct is Auto's converged overhead relative to the best fixed
	// strategy, in percent (negative: Auto beat every fixed strategy).
	VsBestPct float64
}

// AutoAblation measures, on the real runtime, how the Auto strategy's
// converged configuration compares to each fixed strategy per workload.
// Each (workload, strategy) cell runs on a fresh pool with the same seed,
// so tuning profiles never leak across cells and runs are reproducible
// modulo machine noise.
type AutoAblation struct {
	Workers   int // pool size; <= 0 selects GOMAXPROCS
	Seed      uint64
	Reps      int            // invocations per cell; <= 0 selects 80
	Workloads []AutoWorkload // nil selects AutoMicroWorkloads
}

// autoFixedStrategies is the fixed-strategy comparison set — the same
// candidates the tuner itself chooses among.
var autoFixedStrategies = []hybridloop.Strategy{
	hybridloop.Hybrid, hybridloop.DynamicStealing, hybridloop.Static, hybridloop.Guided,
}

// Run executes the ablation and returns one row per workload.
func (a AutoAblation) Run() []AutoResult {
	reps := a.Reps
	if reps <= 0 {
		reps = 80
	}
	workloads := a.Workloads
	if workloads == nil {
		workloads = AutoMicroWorkloads()
	}
	var results []AutoResult
	for _, wl := range workloads {
		out := make([]float64, wl.N)
		units := wl.Units
		body := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = spin(units(i), float64(i))
			}
		}
		res := AutoResult{Workload: wl.Name, FixedNs: map[string]float64{}}
		for _, s := range autoFixedStrategies {
			pool := hybridloop.NewPool(a.Workers, hybridloop.WithSeed(a.Seed))
			samples := timeLoop(pool, wl.N, body, reps, hybridloop.WithStrategy(s))
			pool.Close()
			// Median of the second half: past cache warmup, and one
			// disturbed invocation cannot move it.
			ns := median(samples[len(samples)/2:])
			res.FixedNs[s.String()] = ns
			if res.BestFixed == "" || ns < res.BestNs {
				res.BestFixed, res.BestNs = s.String(), ns
			}
		}
		pool := hybridloop.NewPool(a.Workers, hybridloop.WithSeed(a.Seed))
		samples := timeLoop(pool, wl.N, body, reps, hybridloop.WithAuto())
		res.AutoNs = median(samples[len(samples)*3/4:])
		res.AutoChoice = committedChoice(pool.TunerSites())
		pool.Close()
		res.VsBestPct = (res.AutoNs/res.BestNs - 1) * 100
		results = append(results, res)
	}
	return results
}

// timeLoop runs reps invocations of the loop and returns each one's
// wall time in ns per iteration.
func timeLoop(pool *hybridloop.Pool, n int, body hybridloop.Body, reps int, opts ...hybridloop.ForOption) []float64 {
	samples := make([]float64, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		pool.For(0, n, body, opts...)
		samples[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return samples
}

// median returns the median of xs, sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// committedChoice renders the configuration the tuner committed to for
// the site with the most decisions, or "exploring" if none committed.
func committedChoice(sites []hybridloop.TunerSite) string {
	var best *hybridloop.TunerSite
	for i := range sites {
		if best == nil || sites[i].Decisions > best.Decisions {
			best = &sites[i]
		}
	}
	if best == nil {
		return "none"
	}
	if best.State != "committed" || best.Committed < 0 || best.Committed >= len(best.Arms) {
		return "exploring"
	}
	arm := best.Arms[best.Committed].Arm
	if arm.Serial {
		return "serial"
	}
	name := hybridloop.Strategy(arm.Strategy).String()
	if arm.ChunkScale != 1 && arm.ChunkScale != 0 {
		name = fmt.Sprintf("%s x%g chunk", name, arm.ChunkScale)
	}
	return name
}

// RenderAutoResults writes the ablation as a table: per workload, every
// fixed strategy's ns/op, Auto's converged ns/op and choice, and Auto's
// distance from the best fixed strategy.
func RenderAutoResults(w io.Writer, results []AutoResult) {
	if len(results) == 0 {
		return
	}
	fixed := make([]string, 0, len(results[0].FixedNs))
	for name := range results[0].FixedNs {
		fixed = append(fixed, name)
	}
	sort.Strings(fixed)
	t := Table{
		Title:  "Auto vs fixed strategies (ns/iter; fixed = median of second half, auto = converged median of last quarter)",
		Header: append(append([]string{"workload"}, fixed...), "auto", "auto choice", "vs best"),
	}
	for _, r := range results {
		row := []string{r.Workload}
		for _, name := range fixed {
			cell := fmt.Sprintf("%.1f", r.FixedNs[name])
			if name == r.BestFixed {
				cell += "*"
			}
			row = append(row, cell)
		}
		row = append(row,
			fmt.Sprintf("%.1f", r.AutoNs),
			r.AutoChoice,
			fmt.Sprintf("%+.1f%%", r.VsBestPct))
		t.AddRow(row...)
	}
	t.Render(w)
}
