// Benchmarks regenerating the paper's tables and figures. Each
// BenchmarkFigN_* runs the corresponding simulated experiment and reports
// the figure's headline metrics via b.ReportMetric, so
//
//	go test -bench=Fig -benchmem
//
// prints one row per (figure, workload, strategy) with the same
// quantities the paper plots: work efficiency Ts/T1, scalability T1/T32,
// affinity percentages, and inferred memory latency. The sizes here are
// reduced relative to cmd/* so the full suite runs in seconds; the
// commands regenerate the full-size figures.
//
// The BenchmarkRuntime_* benchmarks measure the real goroutine runtime
// (scheduling overhead per strategy, claim costs, fork-join costs) with
// testing.B timing.
package hybridloop_test

import (
	"fmt"
	"testing"

	"hybridloop"
	"hybridloop/internal/harness"
	"hybridloop/internal/loop"
	"hybridloop/internal/nas"
	"hybridloop/internal/sim"
	"hybridloop/internal/topology"
	"hybridloop/internal/workload"
)

var benchStrategies = []loop.Strategy{
	loop.Hybrid, loop.DynamicStealing, loop.Static, loop.DynamicSharing, loop.Guided,
}

func microBench(balanced bool, mb int64) sim.Workload {
	return workload.Micro(workload.MicroConfig{
		N:              512,
		OuterLoops:     4,
		TotalBytes:     mb << 20,
		Balanced:       balanced,
		ComputePerLine: 2,
	})
}

// BenchmarkFig1 reproduces Figure 1: for each microbenchmark variant and
// strategy, report work efficiency (Ts/T1) and scalability at 32 cores
// (T1/T32).
func BenchmarkFig1(b *testing.B) {
	m := topology.Paper()
	for _, bal := range []bool{true, false} {
		name := "unbalanced"
		if bal {
			name = "balanced"
		}
		for _, mb := range []int64{12, 64} {
			w := microBench(bal, mb)
			for _, s := range benchStrategies {
				b.Run(fmt.Sprintf("%s/%dMB/%v", name, mb, s), func(b *testing.B) {
					var ts, t1, t32 float64
					for i := 0; i < b.N; i++ {
						ts = sim.RunSequential(m, w)
						t1 = sim.Run(sim.Config{Machine: m, P: 1, Strategy: s, Seed: uint64(i + 1)}, w).Cycles
						t32 = sim.Run(sim.Config{Machine: m, P: 32, Strategy: s, Seed: uint64(i + 1)}, w).Cycles
					}
					b.ReportMetric(ts/t1, "Ts/T1")
					b.ReportMetric(t1/t32, "T1/T32")
				})
			}
		}
	}
}

// BenchmarkFig2 reproduces Figure 2: same-core percentage at 32 cores.
func BenchmarkFig2(b *testing.B) {
	m := topology.Paper()
	for _, bal := range []bool{true, false} {
		name := "unbalanced"
		if bal {
			name = "balanced"
		}
		w := microBench(bal, 48)
		for _, s := range benchStrategies {
			b.Run(fmt.Sprintf("%s/%v", name, s), func(b *testing.B) {
				var aff float64
				for i := 0; i < b.N; i++ {
					aff = sim.Run(sim.Config{Machine: m, P: 32, Strategy: s, Seed: uint64(i + 1)}, w).Affinity
				}
				b.ReportMetric(100*aff, "same-core-%")
			})
		}
	}
}

// BenchmarkFig3 reproduces Figure 3: NAS kernel profile scalability.
func BenchmarkFig3(b *testing.B) {
	m := topology.Paper()
	profiles := []sim.Workload{
		workload.MGProfile(5, 3),
		workload.EPProfile(1024, 1024),
		workload.FTProfile(32, 32, 32, 3),
		workload.ISProfile(1<<21, 3),
		workload.CGProfile(1<<16, 6, 2, 8, 271828),
	}
	for _, w := range profiles {
		for _, s := range benchStrategies {
			b.Run(fmt.Sprintf("%s/%v", w.Name, s), func(b *testing.B) {
				var t1, t32 float64
				for i := 0; i < b.N; i++ {
					t1 = sim.Run(sim.Config{Machine: m, P: 1, Strategy: s, Seed: uint64(i + 1)}, w).Cycles
					t32 = sim.Run(sim.Config{Machine: m, P: 32, Strategy: s, Seed: uint64(i + 1)}, w).Cycles
				}
				b.ReportMetric(t1/t32, "T1/T32")
			})
		}
	}
}

// BenchmarkFig4 reproduces Figure 4: per-level access counts, reported as
// the inferred latency (without L1) and the remote fraction of DRAM-level
// traffic.
func BenchmarkFig4(b *testing.B) {
	m := topology.Paper()
	profiles := []sim.Workload{
		workload.FTProfile(32, 32, 32, 3),
		workload.ISProfile(1<<21, 3),
		workload.CGProfile(1<<16, 6, 2, 8, 271828),
	}
	for _, w := range profiles {
		for _, s := range []loop.Strategy{loop.Hybrid, loop.DynamicStealing, loop.Static} {
			b.Run(fmt.Sprintf("%s/%v", w.Name, s), func(b *testing.B) {
				var r sim.Result
				for i := 0; i < b.N; i++ {
					r = sim.Run(sim.Config{Machine: m, P: 32, Strategy: s, Seed: uint64(i + 1)}, w)
				}
				c := r.Counts
				b.ReportMetric(c.InferredLatency(m.Lat, false), "inferred-latency-cycles")
				remote := float64(c[topology.RemoteL3] + c[topology.RemoteDRAM])
				beyondL2 := remote + float64(c[topology.LocalL3]+c[topology.LocalDRAM])
				if beyondL2 > 0 {
					b.ReportMetric(100*remote/beyondL2, "remote-%")
				}
			})
		}
	}
}

// BenchmarkFig5 reports the latency table (the cost model itself).
func BenchmarkFig5(b *testing.B) {
	m := topology.Paper()
	for l := topology.Level(0); l < topology.NumLevels; l++ {
		b.Run(l.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Lat[l]
			}
			b.ReportMetric(m.Lat[l], "cycles")
		})
	}
}

// --- real-runtime benchmarks -------------------------------------------

// BenchmarkRuntime_LoopOverhead measures the per-loop overhead of each
// strategy on the goroutine runtime with an empty body: the cost of
// partitioning, claiming and joining a loop.
func BenchmarkRuntime_LoopOverhead(b *testing.B) {
	for _, p := range []int{1, 4} {
		pool := hybridloop.NewPool(p, hybridloop.WithSeed(1))
		for _, s := range benchStrategies {
			b.Run(fmt.Sprintf("P%d/%v", p, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pool.For(0, 4096, func(lo, hi int) {}, hybridloop.WithStrategy(hybridloop.Strategy(s)))
				}
			})
		}
		pool.Close()
	}
}

// BenchmarkRuntime_SumReduction measures a real memory-bound reduction
// under each strategy.
func BenchmarkRuntime_SumReduction(b *testing.B) {
	const n = 1 << 20
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(1))
	defer pool.Close()
	partials := make([]float64, 1024)
	for _, s := range benchStrategies {
		b.Run(s.String(), func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				pool.For(0, 1024, func(lo, hi int) {
					for blk := lo; blk < hi; blk++ {
						var sum float64
						for j := blk * (n / 1024); j < (blk+1)*(n/1024); j++ {
							sum += data[j]
						}
						partials[blk] = sum
					}
				}, hybridloop.WithStrategy(hybridloop.Strategy(s)))
			}
		})
	}
}

// BenchmarkRuntime_NASKernels times the real NAS kernels under the hybrid
// strategy.
func BenchmarkRuntime_NASKernels(b *testing.B) {
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(1))
	defer pool.Close()
	b.Run("ep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nas.EP{M: 16, LogBlock: 8}.Parallel(pool)
		}
	})
	b.Run("is", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nas.IS{N: 1 << 17, MaxKey: 1 << 11, Iterations: 2}.Parallel(pool)
		}
	})
	b.Run("is_seq", func(b *testing.B) { // is's sequential twin, for the ratio
		for i := 0; i < b.N; i++ {
			nas.IS{N: 1 << 17, MaxKey: 1 << 11, Iterations: 2}.Sequential()
		}
	})
	b.Run("cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nas.CG{N: 4000, NIters: 1, InnerIters: 10}.Parallel(pool)
		}
	})
	b.Run("mg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nas.MG{Log2N: 4, Cycles: 2}.Parallel(pool)
		}
	})
	b.Run("ft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nas.FT{N1: 16, N2: 16, N3: 16, Iterations: 2}.Parallel(pool)
		}
	})
}

// BenchmarkRuntime_AffinityTable is Figure 2 on the *real* runtime: it
// reports the measured same-core fraction across consecutive loops.
func BenchmarkRuntime_AffinityTable(b *testing.B) {
	const n = 1 << 14
	pool := hybridloop.NewPool(4, hybridloop.WithSeed(1))
	defer pool.Close()
	data := make([]float64, n)
	for _, s := range benchStrategies {
		b.Run(s.String(), func(b *testing.B) {
			tr := hybridloop.NewAffinityTracker(n)
			var sum float64
			loops := 0
			for i := 0; i < b.N; i++ {
				pool.For(0, n, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						data[j]++
					}
				}, hybridloop.WithStrategy(hybridloop.Strategy(s)), hybridloop.WithRecorder(tr))
				frac := tr.EndLoop()
				if i > 0 {
					sum += frac
					loops++
				}
			}
			if loops > 0 {
				b.ReportMetric(100*sum/float64(loops), "same-core-%")
			}
		})
	}
}

// BenchmarkHarnessScalability exercises the full harness path (the code
// behind the cmd/ tools) at reduced size.
func BenchmarkHarnessScalability(b *testing.B) {
	m := topology.Paper()
	w := microBench(true, 8)
	for i := 0; i < b.N; i++ {
		res := harness.Scalability{
			Machine: m, Workload: w,
			Ps:    []int{1, 8, 32},
			Seeds: []uint64{1},
		}.Run()
		if res.Ts <= 0 {
			b.Fatal("bad harness result")
		}
	}
}
