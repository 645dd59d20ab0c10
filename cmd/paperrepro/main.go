// Command paperrepro regenerates every figure of the paper in one run —
// the end-to-end reproduction driver:
//
//	Figure 1: microbenchmark work efficiency and scalability
//	Figure 2: same-core (affinity) percentages at 32 cores
//	Figure 3: NAS kernel profile scalability
//	Figure 4: memory accesses serviced per hierarchy level + inferred latency
//	Figure 5: the machine's per-level latency table
//
// It then measures the real goroutine runtime, not the simulator: every
// strategy at P = 1, 2, 4 … NumCPU on the two microbenchmarks and the
// five NAS kernels (internal/nas), each kernel verified once against its
// sequential twin before it is timed; and the Auto strategy against every
// fixed strategy. It exits 1 if a kernel fails verification.
//
// Use -quick for a reduced pass (~seconds: quarter-size working sets, one
// seed, one timed repetition); the default takes a few minutes. -html also
// writes the tables and SVG figures as one self-contained HTML report.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"hybridloop"
	"hybridloop/internal/harness"
	"hybridloop/internal/nas"
	"hybridloop/internal/sim"
	"hybridloop/internal/topology"
	"hybridloop/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "reduced problem sizes for a fast pass")
	htmlPath := flag.String("html", "", "also write a self-contained HTML report (tables + SVG figures)")
	flag.Parse()

	report := &harness.Report{Title: "A Hybrid Scheduling Scheme for Parallel Loops — reproduction report"}
	// emit prints a section's tables, then a blank line, and adds them and
	// its figures to the report.
	emit := func(title string, render func(io.Writer), svgs ...string) {
		var buf bytes.Buffer
		render(io.MultiWriter(os.Stdout, &buf))
		fmt.Println()
		report.AddText(title, buf.String())
		for _, svg := range svgs {
			report.AddSVG("", svg)
		}
	}

	scale, seeds, outer, reps := 1.0, 3, 8, 3
	if *quick {
		scale, seeds, outer, reps = 0.25, 1, 4, 1
	}
	m := topology.Paper()
	seedList := make([]uint64, seeds)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}

	banner("Figure 1: microbenchmark work efficiency and scalability")
	var micro []sim.Workload
	for _, balanced := range []bool{true, false} {
		for _, size := range workload.PaperSizes(m.Sockets) {
			micro = append(micro, workload.Micro(workload.MicroConfig{
				N:              1024,
				OuterLoops:     outer,
				TotalBytes:     int64(float64(size) * scale),
				Balanced:       balanced,
				ComputePerLine: 2,
			}))
		}
	}
	for _, w := range micro {
		res := harness.Scalability{Machine: m, Workload: w, Seeds: seedList, IncludeFF: true}.Run()
		emit("Figure 1 — "+w.Name, res.Render, res.SVGChart().SVG())
	}

	banner("Figure 2: same-core iteration percentage (affinity), 32 cores")
	affRes := harness.Affinity{Machine: m, Workloads: micro, Seeds: seedList}.Run()
	emit("Figure 2 — affinity", affRes.Render, affRes.SVGChart().SVG())

	banner("Figure 3: NAS kernel profiles, work efficiency and scalability")
	profiles := workload.NASProfiles()
	if *quick {
		profiles = []sim.Workload{
			workload.MGProfile(5, 3),
			workload.EPProfile(1024, 1024),
			workload.FTProfile(32, 32, 32, 3),
			workload.ISProfile(1<<21, 3),
			workload.CGProfile(1<<16, 6, 2, 8, 271828),
		}
	}
	for _, w := range profiles {
		res := harness.Scalability{Machine: m, Workload: w, Seeds: seedList, IncludeFF: true}.Run()
		emit("Figure 3 — "+w.Name, res.Render, res.SVGChart().SVG())
	}

	banner("Figure 4: memory accesses per hierarchy level, 32 cores")
	memRes := harness.MemCounts{Machine: m, Workloads: profiles}.Run()
	var memSVGs []string
	for _, c := range memRes.SVGCharts() {
		memSVGs = append(memSVGs, c.SVG())
	}
	emit("Figure 4 — memory hierarchy counts", memRes.Render, memSVGs...)

	banner("Figure 5: per-level access latency (simulator cost model)")
	emit("Figure 5 — access latencies", func(w io.Writer) { harness.RenderLatencies(w, m) })

	banner("Real runtime: every strategy at each worker count, verified NAS kernels")
	verified := true
	emit("Real runtime — strategies × workers", func(w io.Writer) { verified = realSweep(w, reps) })

	banner("Real runtime: Auto against the fixed strategies")
	emit("Real runtime — Auto vs fixed strategies", func(w io.Writer) {
		harness.RenderAutoResults(w, harness.AutoAblation{Seed: 1, Reps: 120}.Run())
	})

	if *htmlPath != "" {
		if err := report.WriteFile(*htmlPath); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote HTML report to %s (%d sections)\n", *htmlPath, report.Sections())
	}
	if !verified {
		fmt.Fprintln(os.Stderr, "paperrepro: a real NAS kernel FAILED verification")
		os.Exit(1)
	}
}

func banner(s string) {
	fmt.Printf("==== %s ====\n\n", s)
}

// realWorkload is one workload of the real-runtime sweep. check, set for
// the NAS kernels, runs it once on a pool and holds the result to its
// sequential twin and to the kernel's own invariant.
type realWorkload struct {
	name  string
	run   func(*hybridloop.Pool, hybridloop.Strategy)
	check func(*hybridloop.Pool) (ok bool, detail string)
}

func realWorkloads() []realWorkload {
	ep := nas.EP{M: 20, LogBlock: 10}
	is := nas.NPBISClasses['S']
	cg := nas.CG{N: 14000, NIters: 2}
	a := cg.Matrix()
	mg := nas.MG{Log2N: 5, Cycles: 2}
	ft := nas.FT{N1: 64, N2: 64, N3: 32, Iterations: 2}
	with := hybridloop.WithStrategy
	return []realWorkload{
		{name: "micro/balanced", run: microBench(true)},
		{name: "micro/unbalanced", run: microBench(false)},
		{
			name: "ep",
			run:  func(p *hybridloop.Pool, s hybridloop.Strategy) { ep.Parallel(p, with(s)) },
			check: func(p *hybridloop.Pool) (bool, string) {
				got := ep.Parallel(p)
				return got == ep.Sequential(), fmt.Sprintf("2^%d pairs, %d accepted, sums match sequential exactly", ep.M-1, got.Pairs)
			},
		},
		{
			name: "is",
			run:  func(p *hybridloop.Pool, s hybridloop.Strategy) { nas.NPBIS(is, p, with(s)) },
			check: func(p *hybridloop.Pool) (bool, string) {
				got := nas.NPBIS(is, p)
				return reflect.DeepEqual(got, nas.NPBIS(is, nil)) && nas.VerifyRanks(got.Keys, got.Ranks) == nil,
					fmt.Sprintf("class S, %d keys ranked as sequential and verified sorted", is.N)
			},
		},
		{
			name: "cg",
			run:  func(p *hybridloop.Pool, s hybridloop.Strategy) { cg.ParallelOn(p, a, with(s)) },
			check: func(p *hybridloop.Pool) (bool, string) {
				got := cg.ParallelOn(p, a)
				return reflect.DeepEqual(got, cg.SequentialOn(a)) && got.Residual < 1e-4,
					fmt.Sprintf("n=%d, final residual %.2e, zeta %.6f, as sequential", cg.N, got.Residual, got.Zeta)
			},
		},
		{
			name: "mg",
			run:  func(p *hybridloop.Pool, s hybridloop.Strategy) { mg.ParallelNPB(p, with(s)) },
			check: func(p *hybridloop.Pool) (bool, string) {
				got := mg.ParallelNPB(p)
				return reflect.DeepEqual(got, mg.SequentialNPB()) && got.Final() < 0.2*got.InitialResidual,
					fmt.Sprintf("grid %d^3, residual %.3e -> %.3e over %d cycles, as sequential",
						1<<mg.Log2N, got.InitialResidual, got.Final(), mg.Cycles)
			},
		},
		{
			name: "ft",
			run:  func(p *hybridloop.Pool, s hybridloop.Strategy) { ft.Parallel(p, with(s)) },
			check: func(p *hybridloop.Pool) (bool, string) {
				got := ft.Parallel(p)
				rt := ft.RoundTripError()
				return reflect.DeepEqual(got, ft.Sequential()) && rt < 1e-10,
					fmt.Sprintf("%dx%dx%d, FFT round-trip error %.2e, checksums as sequential", ft.N1, ft.N2, ft.N3, rt)
			},
		},
	}
}

// microBench returns a runner for the paper's microbenchmark on the real
// runtime: an outer sequential loop of parallel loops whose iterations
// walk disjoint array segments.
func microBench(balanced bool) func(*hybridloop.Pool, hybridloop.Strategy) {
	const n, outer = 512, 6
	const totalBytes = 32 << 20
	data := make([]float64, totalBytes/8)
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		size := len(data) / n
		if !balanced {
			size = int(float64(len(data)) * (0.25 + 1.5*float64(i)/float64(n-1)) /
				(float64(n)))
		}
		offs[i+1] = min(offs[i]+size, len(data))
	}
	return func(pool *hybridloop.Pool, s hybridloop.Strategy) {
		for rep := 0; rep < outer; rep++ {
			pool.For(0, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seg := data[offs[i]:offs[i+1]]
					// Stride-13 walk, like the paper's microbenchmark.
					for k := 0; k < len(seg); k += 13 {
						seg[k] += 1
					}
				}
			}, hybridloop.WithStrategy(s))
		}
	}
}

// realSweep times every workload under every strategy at P = 1, 2, 4 …
// NumCPU, the minimum of reps runs a cell on a fresh pool, and prints one
// table a workload. It reports whether every kernel passed its check.
func realSweep(out io.Writer, reps int) (verified bool) {
	top := runtime.NumCPU()
	var ps []int
	for p := 1; p <= top; p *= 2 {
		ps = append(ps, p)
	}
	if ps[len(ps)-1] != top {
		ps = append(ps, top)
	}
	fmt.Fprintf(out, "%d CPUs, P in %v, min of %d reps a cell\n", top, ps, reps)
	header := []string{"strategy \\ P"}
	for _, p := range ps {
		header = append(header, fmt.Sprint(p))
	}
	verified = true
	for _, w := range realWorkloads() {
		fmt.Fprintln(out)
		// One untimed run first, so the first timed cell pays no first
		// touch of the workload's memory: a kernel's is its check.
		warm := hybridloop.NewPool(top, hybridloop.WithSeed(1))
		if w.check != nil {
			ok, detail := w.check(warm)
			status := "ok"
			if !ok {
				status, verified = "FAILED", false
			}
			fmt.Fprintf(out, "  %-4s %-6s %s\n\n", w.name, status, detail)
		} else {
			w.run(warm, hybridloop.Hybrid)
		}
		warm.Close()

		t := harness.Table{
			Title:  fmt.Sprintf("%s — wall time and scalability (T1/TP), real runtime", w.name),
			Header: header,
		}
		for _, s := range harness.DefaultStrategies {
			times := make([]time.Duration, len(ps))
			for i, p := range ps {
				pool := hybridloop.NewPool(p, hybridloop.WithSeed(uint64(p)))
				for r := 0; r < reps; r++ {
					start := time.Now()
					w.run(pool, s)
					if el := time.Since(start); r == 0 || el < times[i] {
						times[i] = el
					}
				}
				pool.Close()
			}
			row := []string{s.String()}
			for _, d := range times {
				row = append(row, fmt.Sprintf("%v (%.2fx)", d.Round(100*time.Microsecond), float64(times[0])/float64(d)))
			}
			t.AddRow(row...)
		}
		t.Render(out)
	}
	return verified
}
