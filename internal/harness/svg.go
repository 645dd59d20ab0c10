package harness

import (
	"fmt"

	"hybridloop/internal/loop"
	"hybridloop/internal/plot"
	"hybridloop/internal/topology"
)

// SVGChart returns the scalability result as a line chart in the paper's
// Figure 1/3 style (one line per strategy, cores on the X axis).
func (r ScalResult) SVGChart() *plot.LineChart {
	c := &plot.LineChart{
		Title:  fmt.Sprintf("%s — scalability (T1/TP)", r.Workload),
		XLabel: "cores",
		YLabel: "T1/TP",
	}
	for _, p := range r.Ps {
		c.XTicks = append(c.XTicks, fmt.Sprint(p))
	}
	for _, s := range append(append([]loop.Strategy{}, DefaultStrategies...), FF) {
		if _, ok := r.T1[s]; !ok {
			continue
		}
		sr := plot.Series{Name: ffName(s)}
		for _, p := range r.Ps {
			sr.Y = append(sr.Y, r.ScalabilityAt(s, p))
		}
		c.Series = append(c.Series, sr)
	}
	return c
}

// SVGChart returns the affinity result as a grouped bar chart (the
// Figure 2 table as bars: one group per workload, one bar per strategy).
func (r AffinityResult) SVGChart() *plot.BarChart {
	c := &plot.BarChart{
		Title:  fmt.Sprintf("Same-core iteration %% across consecutive loops (P=%d)", r.P),
		YLabel: "same-core %",
		Groups: r.Workloads,
		YMax:   100,
	}
	for _, s := range DefaultStrategies {
		sr := plot.Series{Name: s.String()}
		any := false
		for _, wn := range r.Workloads {
			if st, ok := r.Fracs[wn][s]; ok {
				sr.Y = append(sr.Y, 100*st.Mean)
				any = true
			} else {
				sr.Y = append(sr.Y, 0)
			}
		}
		if any {
			c.Series = append(c.Series, sr)
		}
	}
	return c
}

// SVGCharts returns one bar chart per workload: hierarchy levels as
// groups, strategies as bars, log-free raw counts (the Figure 4 shape).
func (r MemCountsResult) SVGCharts() []*plot.BarChart {
	var out []*plot.BarChart
	for _, name := range r.Names {
		c := &plot.BarChart{
			Title:  fmt.Sprintf("%s — accesses serviced per level (P=%d)", name, r.P),
			YLabel: "accesses",
		}
		for l := topology.Level(0); l < topology.NumLevels; l++ {
			c.Groups = append(c.Groups, l.String())
		}
		for _, s := range []loop.Strategy{loop.Hybrid, loop.DynamicStealing, loop.Static} {
			counts, ok := r.Counts[name][s]
			if !ok {
				continue
			}
			sr := plot.Series{Name: s.String()}
			for l := topology.Level(0); l < topology.NumLevels; l++ {
				sr.Y = append(sr.Y, float64(counts[l]))
			}
			c.Series = append(c.Series, sr)
		}
		out = append(out, c)
	}
	return out
}
