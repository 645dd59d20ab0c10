package harness

import (
	"bytes"
	"strings"
	"testing"

	"hybridloop/internal/loop"
	"hybridloop/internal/sim"
	"hybridloop/internal/topology"
	"hybridloop/internal/workload"
)

func TestStat(t *testing.T) {
	s := NewStat([]float64{2, 4})
	if s.Mean != 3 || s.N != 2 {
		t.Fatalf("stat %+v", s)
	}
	if s.Std < 1.41 || s.Std > 1.42 {
		t.Fatalf("std = %v, want ~sqrt(2)", s.Std)
	}
	if rs := s.RelStd(); rs < 0.47 || rs > 0.48 {
		t.Fatalf("RelStd = %v", rs)
	}
	if NewStat(nil).Mean != 0 {
		t.Fatal("empty stat not zero")
	}
	single := NewStat([]float64{5})
	if single.Std != 0 || single.String() != "5" {
		t.Fatalf("single-sample stat %+v -> %q", single, single.String())
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{Title: "demo", Header: []string{"a", "bbbb"}}
	tab.AddRow("x", "y")
	tab.AddRow("longer", "z")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a", "bbbb", "longer", "z", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	var buf bytes.Buffer
	RenderSeries(&buf, "title", "y", []Series{
		{Name: "one", X: []int{1, 2}, Y: []float64{1, 2}},
		{Name: "two", X: []int{1, 2}, Y: []float64{2, 1}},
	})
	out := buf.String()
	if !strings.Contains(out, "one") || !strings.Contains(out, "2.00") {
		t.Fatalf("series render wrong:\n%s", out)
	}
	// Must not panic on empty input.
	RenderSeries(&buf, "t", "y", nil)
}

func benchWorkload() sim.Workload {
	return workload.Micro(workload.MicroConfig{
		N: 128, OuterLoops: 3, TotalBytes: 4 << 20, Balanced: true, ComputePerLine: 2,
	})
}

func TestScalabilityExperiment(t *testing.T) {
	res := Scalability{
		Machine:    topology.Paper(),
		Workload:   benchWorkload(),
		Ps:         []int{1, 8},
		Strategies: []loop.Strategy{loop.Hybrid, loop.Static},
		Seeds:      []uint64{1, 2},
	}.Run()
	if res.Ts <= 0 {
		t.Fatal("Ts not measured")
	}
	for _, s := range []loop.Strategy{loop.Hybrid, loop.Static} {
		if eff := res.WorkEfficiency(s); eff <= 0.5 || eff > 1.01 {
			t.Fatalf("%v: work efficiency %v", s, eff)
		}
		if sc := res.ScalabilityAt(s, 8); sc < 4 {
			t.Fatalf("%v: scalability at 8 = %v", s, sc)
		}
		if res.ScalabilityAt(s, 1) < 0.99 || res.ScalabilityAt(s, 1) > 1.01 {
			t.Fatalf("%v: scalability at 1 not ~1", s)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "scalability") {
		t.Fatal("render missing scalability section")
	}
}

func TestScalabilityMeasuresT1WhenAbsent(t *testing.T) {
	res := Scalability{
		Machine:    topology.Paper(),
		Workload:   benchWorkload(),
		Ps:         []int{8}, // no P=1 in the sweep
		Strategies: []loop.Strategy{loop.Hybrid},
		Seeds:      []uint64{1},
	}.Run()
	if res.T1[loop.Hybrid].Mean <= 0 {
		t.Fatal("T1 not measured when absent from the sweep")
	}
}

func TestAffinityExperiment(t *testing.T) {
	res := Affinity{
		Machine:    topology.Paper(),
		Workloads:  []sim.Workload{benchWorkload()},
		Strategies: []loop.Strategy{loop.Static, loop.DynamicStealing},
		Seeds:      []uint64{1},
	}.Run()
	st := res.Fracs[res.Workloads[0]][loop.Static]
	if st.Mean != 1.0 {
		t.Fatalf("static affinity %v, want 1", st.Mean)
	}
	dy := res.Fracs[res.Workloads[0]][loop.DynamicStealing]
	if dy.Mean > 0.6 {
		t.Fatalf("dynamic affinity %v unexpectedly high", dy.Mean)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "%") {
		t.Fatal("affinity render missing percentages")
	}
}

func TestMemCountsExperiment(t *testing.T) {
	res := MemCounts{
		Machine:   topology.Paper(),
		Workloads: []sim.Workload{benchWorkload()},
	}.Run()
	counts := res.Counts[res.Names[0]][loop.Hybrid]
	if counts.Total() == 0 {
		t.Fatal("no accesses recorded")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "inferred latency") {
		t.Fatal("memcounts render missing inferred latency")
	}
	RenderLatencies(&buf, topology.Paper())
	if !strings.Contains(buf.String(), "remote DRAM") {
		t.Fatal("latency table missing rows")
	}
}

func TestReportHTML(t *testing.T) {
	r := &Report{Title: "demo <report>"}
	r.AddText("tables & text", "col1  col2\n1     2")
	r.AddSVG("figure", `<svg xmlns="http://www.w3.org/2000/svg"><rect/></svg>`)
	if r.Sections() != 2 {
		t.Fatalf("%d sections", r.Sections())
	}
	h := r.HTML()
	for _, want := range []string{
		"demo &lt;report&gt;", "tables &amp; text", "<pre>", "<svg", "</html>",
	} {
		if !strings.Contains(h, want) {
			t.Fatalf("report missing %q:\n%s", want, h)
		}
	}
	if strings.Contains(h, "<report>") {
		t.Fatal("title not escaped")
	}
}
