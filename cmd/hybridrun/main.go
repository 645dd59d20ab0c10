// Command hybridrun executes the real NAS kernels (internal/nas) on the
// goroutine work-stealing runtime with a selectable scheduling strategy —
// the front-end a user reaches for to run the paper's workloads on their
// own machine.
//
// Usage:
//
//	hybridrun -kernel ep|is|cg|mg|ft [-strategy hybrid|static|stealing|sharing|guided]
//	          [-workers n] [-size s] [-reps n] [-trace] [-verify]
//
// -size scales each kernel's canonical dimension (ep: 2^size numbers,
// is: 2^size keys, cg: matrix dimension, mg: log2 grid edge, ft: cube
// edge). -verify cross-checks the parallel run against the sequential
// reference. -trace prints the per-worker scheduling summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hybridloop"
	"hybridloop/internal/nas"
)

var strategies = map[string]hybridloop.Strategy{
	"hybrid":   hybridloop.Hybrid,
	"static":   hybridloop.Static,
	"stealing": hybridloop.DynamicStealing,
	"sharing":  hybridloop.DynamicSharing,
	"guided":   hybridloop.Guided,
}

func main() {
	kernel := flag.String("kernel", "ep", "kernel: ep, is, cg, mg, ft")
	stratName := flag.String("strategy", "hybrid", "hybrid, static, stealing, sharing, guided")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	size := flag.Int("size", 0, "problem size (kernel-specific; 0 = default)")
	class := flag.String("class", "", "NPB class (S for every kernel; W for cg, ep, is; A for cg, is): run the official benchmark with verification")
	reps := flag.Int("reps", 1, "repetitions (timings reported per rep)")
	doTrace := flag.Bool("trace", false, "print per-worker scheduling summary")
	verify := flag.Bool("verify", false, "cross-check against the sequential reference")
	flag.Parse()

	strat, ok := strategies[*stratName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *stratName)
		os.Exit(2)
	}
	pool := hybridloop.NewPool(*workers)
	defer pool.Close()

	var opts []hybridloop.ForOption
	opts = append(opts, hybridloop.WithStrategy(strat))
	var tl *hybridloop.TraceLog
	if *doTrace {
		tl = hybridloop.NewTraceLog(1 << 20)
		opts = append(opts, hybridloop.WithTrace(tl))
	}

	var run func() string
	var check func() error
	if *class != "" {
		run, check = buildNPBKernel(*kernel, byte((*class)[0]), pool, opts)
	} else {
		run, check = buildKernel(*kernel, *size, pool, opts)
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "unknown kernel %q (or class %q not available for it)\n", *kernel, *class)
		os.Exit(2)
	}

	fmt.Printf("kernel=%s strategy=%s workers=%d\n", *kernel, *stratName, pool.Workers())
	for r := 0; r < *reps; r++ {
		start := time.Now()
		desc := run()
		elapsed := time.Since(start)
		fmt.Printf("rep %d: %v  %s\n", r+1, elapsed.Round(time.Microsecond), desc)
	}
	if *verify {
		if err := check(); err != nil {
			fmt.Fprintf(os.Stderr, "VERIFICATION FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("verification: ok")
	}
	if tl != nil {
		fmt.Println()
		tl.Render(os.Stdout)
	}
	s := pool.Stats()
	fmt.Printf("scheduler: %d tasks, %d steals (%d failed rounds), %d hybrid-loop entries\n",
		s.Tasks, s.Steals, s.FailedSteals, s.LoopEntries)
}

// buildKernel returns a runner (executes one parallel rep, returns a
// description) and a verifier for the chosen kernel and size.
func buildKernel(kernel string, size int, pool *hybridloop.Pool, opts []hybridloop.ForOption) (func() string, func() error) {
	switch kernel {
	case "ep":
		if size == 0 {
			size = 22
		}
		ep := nas.EP{M: size, LogBlock: 10}
		var last nas.EPResult
		return func() string {
				last = ep.Parallel(pool, opts...)
				return fmt.Sprintf("pairs=%d sx=%.6f sy=%.6f", last.Pairs, last.Sx, last.Sy)
			}, func() error {
				if seq := ep.Sequential(); seq != last {
					return fmt.Errorf("ep: parallel %+v != sequential %+v", last, seq)
				}
				return nil
			}
	case "is":
		if size == 0 {
			size = 21
		}
		is := nas.IS{N: 1 << size, MaxKey: 1 << 11}
		var last nas.ISResult
		return func() string {
				last = is.Parallel(pool, opts...)
				return fmt.Sprintf("keys=%d rounds=%d", len(last.Keys), 10)
			}, func() error {
				return nas.VerifyRanks(last.Keys, last.Ranks)
			}
	case "cg":
		if size == 0 {
			size = 14000
		}
		cg := nas.CG{N: size, NIters: 5}
		a := cg.Matrix()
		var last nas.CGResult
		return func() string {
				last = cg.ParallelOn(pool, a, opts...)
				return fmt.Sprintf("n=%d nnz=%d zeta=%.8f residual=%.2e", size, a.NNZ(), last.Zeta, last.Residual)
			}, func() error {
				seq := cg.SequentialOn(a)
				if seq.Zeta != last.Zeta {
					return fmt.Errorf("cg: zeta %v != sequential %v", last.Zeta, seq.Zeta)
				}
				return nil
			}
	case "mg":
		if size == 0 {
			size = 5
		}
		mg := nas.MG{Log2N: size, Cycles: 4}
		var last nas.MGResult
		return func() string {
				last = mg.Parallel(pool, opts...)
				return fmt.Sprintf("grid=%d^3 residual %.3e -> %.3e", 1<<size, last.InitialResidual, last.Final())
			}, func() error {
				if last.Final() >= last.InitialResidual {
					return fmt.Errorf("mg: residual did not shrink")
				}
				seq := mg.Sequential()
				if seq.Final() != last.Final() {
					return fmt.Errorf("mg: final residual %v != sequential %v", last.Final(), seq.Final())
				}
				return nil
			}
	case "ft":
		if size == 0 {
			size = 64
		}
		ft := nas.FT{N1: size, N2: size, N3: size, Iterations: 6}
		var last nas.FTResult
		return func() string {
				last = ft.Parallel(pool, opts...)
				cs := last.Checksums[len(last.Checksums)-1]
				return fmt.Sprintf("%d^3 checksum=%v", size, cs)
			}, func() error {
				seq := ft.Sequential()
				for i := range seq.Checksums {
					if seq.Checksums[i] != last.Checksums[i] {
						return fmt.Errorf("ft: checksum %d differs", i)
					}
				}
				return nil
			}
	}
	return nil, nil
}

// buildNPBKernel returns runner/verifier for the official NPB benchmark
// classes with their published verification values.
func buildNPBKernel(kernel string, class byte, pool *hybridloop.Pool, opts []hybridloop.ForOption) (func() string, func() error) {
	switch kernel {
	case "cg":
		p, ok := nas.CGClasses[class]
		if !ok {
			return nil, nil
		}
		var last nas.CGResult
		return func() string {
				last = nas.NPBCG(p, pool)
				return fmt.Sprintf("NPB CG class %c: zeta=%.13f", class, last.Zeta)
			}, func() error {
				if p.ZetaRef != 0 && abs(last.Zeta-p.ZetaRef) > 1e-10 {
					return fmt.Errorf("zeta %.13f differs from official %.13f", last.Zeta, p.ZetaRef)
				}
				return nil
			}
	case "ep":
		var m int
		switch class {
		case 'S':
			m = 25
		case 'W':
			m = 26
		default:
			return nil, nil
		}
		ep := nas.EP{M: m, LogBlock: 16}
		var last nas.EPResult
		return func() string {
				last = ep.Parallel(pool, opts...)
				return fmt.Sprintf("NPB EP class %c: sx=%.12e sy=%.12e pairs=%d", class, last.Sx, last.Sy, last.Pairs)
			}, func() error {
				if seq := ep.Sequential(); seq != last {
					return fmt.Errorf("parallel != sequential")
				}
				return nil
			}
	case "mg":
		if class != 'S' {
			return nil, nil
		}
		mg := nas.MG{Log2N: 5, Cycles: 4}
		var last nas.MGResult
		return func() string {
				last = mg.ParallelNPB(pool, opts...)
				return fmt.Sprintf("NPB MG class S: rnm2=%.13e", last.Final())
			}, func() error {
				const ref = 0.5307707005734e-04
				if abs(last.Final()-ref)/ref > 1e-8 {
					return fmt.Errorf("rnm2 %.13e differs from official %.13e", last.Final(), ref)
				}
				return nil
			}
	case "ft":
		if class != 'S' {
			return nil, nil
		}
		ft := nas.FT{N1: 64, N2: 64, N3: 64, Iterations: 6}
		var last nas.NPBFTResult
		return func() string {
				last = nas.NPBFT(ft, pool, opts...)
				c := last.Checksums[len(last.Checksums)-1]
				return fmt.Sprintf("NPB FT class S: final checksum %.12e %.12e", real(c), imag(c))
			}, func() error {
				want := nas.NPBFT(ft, nil)
				for i := range want.Checksums {
					if want.Checksums[i] != last.Checksums[i] {
						return fmt.Errorf("checksum %d differs from sequential", i)
					}
				}
				return nil
			}
	case "is":
		p, ok := nas.NPBISClasses[class]
		if !ok {
			return nil, nil
		}
		var last nas.ISResult
		return func() string {
				last = nas.NPBIS(p, pool, opts...)
				return fmt.Sprintf("NPB IS class %c: %d keys ranked", class, p.N)
			}, func() error {
				return nas.VerifyRanks(last.Keys, last.Ranks)
			}
	}
	return nil, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
