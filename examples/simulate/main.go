// Simulate: drive the discrete-event multicore simulator directly — build
// a custom workload, run it under two strategies on the paper's 32-core
// machine, and inspect time, affinity, steal counts and the memory-
// hierarchy counters. This is the machinery behind cmd/paperrepro's
// figures, usable for what-if studies (e.g. changing the topology).
package main

import (
	"flag"
	"fmt"

	"hybridloop/internal/loop"
	"hybridloop/internal/plot"
	"hybridloop/internal/sim"
	"hybridloop/internal/topology"
	"hybridloop/internal/workload"
)

func main() {
	gantt := flag.String("gantt", "", "write per-strategy core timelines (Gantt SVGs) into this directory")
	flag.Parse()
	m := topology.Paper()
	fmt.Printf("machine: %d sockets x %d cores, L3 %d MiB/socket\n\n",
		m.Sockets, m.CoresPerSocket, m.L3Size>>20)

	w := workload.Micro(workload.MicroConfig{
		N:              512,
		OuterLoops:     6,
		TotalBytes:     64 << 20,
		Balanced:       false,
		ComputePerLine: 2,
	})
	ts := sim.RunSequential(m, w)
	fmt.Printf("workload %q: sequential time %.3g cycles\n\n", w.Name, ts)

	for _, s := range []loop.Strategy{loop.Hybrid, loop.Static, loop.DynamicStealing} {
		r := sim.Run(sim.Config{Machine: m, P: 32, Strategy: s, Seed: 1, Timeline: *gantt != ""}, w)
		if *gantt != "" {
			writeGantt(*gantt, s, r)
		}
		fmt.Printf("%-12v T32 = %.3g cycles (scalability vs Ts: %.1fx)\n",
			s, r.Cycles, ts/r.Cycles)
		fmt.Printf("             affinity %.1f%%, %d steals, %d claims (%d failed)\n",
			100*r.Affinity, r.Steals, r.Claims, r.FailedClaims)
		fmt.Printf("             accesses: L1 %.2g | L2 %.2g | L3 %.2g | DRAM local %.2g remote %.2g\n\n",
			float64(r.Counts[topology.L1]), float64(r.Counts[topology.L2]),
			float64(r.Counts[topology.LocalL3]+r.Counts[topology.RemoteL3]),
			float64(r.Counts[topology.LocalDRAM]), float64(r.Counts[topology.RemoteDRAM]))
	}

	// What-if: the same workload on a hypothetical 8-socket machine with
	// slower interconnect — the locality gap widens.
	m2 := m
	m2.Sockets = 8
	m2.TimeLat[topology.RemoteDRAM] *= 1.5
	m2.TimeLat[topology.RemoteL3] *= 1.5
	rHybrid := sim.Run(sim.Config{Machine: m2, P: 64, Strategy: loop.Hybrid, Seed: 1}, w)
	rSteal := sim.Run(sim.Config{Machine: m2, P: 64, Strategy: loop.DynamicStealing, Seed: 1}, w)
	fmt.Printf("what-if (8 sockets, 1.5x remote penalty, P=64): hybrid %.3g vs vanilla %.3g cycles (%.2fx)\n",
		rHybrid.Cycles, rSteal.Cycles, rSteal.Cycles/rHybrid.Cycles)
}

// writeGantt renders the run's per-core busy timeline, coloring chunks by
// the socket their iterations were designated to under static placement
// (so migrated work is visually off-color for its lane).
func writeGantt(dir string, s loop.Strategy, r sim.Result) {
	g := &plot.Gantt{
		Title: fmt.Sprintf("%v — core timeline (P=%d)", s, r.P),
		Rows:  r.P,
		XMax:  r.Cycles,
	}
	for _, seg := range r.Segments {
		homeSocket := int(seg.Lo) * 4 / 512 // 512 iterations over 4 sockets
		g.Spans = append(g.Spans, plot.GanttSpan{
			Row: int(seg.Core), Start: seg.Start, End: seg.End, Color: homeSocket,
		})
	}
	path := fmt.Sprintf("%s/timeline_%v.svg", dir, s)
	if err := g.WriteFile(path); err != nil {
		fmt.Println("gantt:", err)
		return
	}
	fmt.Printf("wrote %s (%d segments)\n", path, len(r.Segments))
}
