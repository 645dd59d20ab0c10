package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeConfig runs a workload at 1/200 size: two set-ups, each followed by
// the warm-up epochs and one measured epoch.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, trace: trace, budget: time.Millisecond, rounds: 2,
		outDir: t.TempDir(), scale: 200, probeMin: 50 * time.Microsecond,
	}
}

// lastLine parses the result record a run prints last.
func lastLine(t *testing.T, out string) (result, map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result record: %v\n%s", err, out)
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	return res, raw
}

// checkMetrics holds a run's output to a metric table: every name printed
// exactly once with its unit, and the result record carrying exactly the
// table's names.
func checkMetrics(t *testing.T, out string, res result, table []metricDef) {
	t.Helper()
	printed := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" {
			if _, dup := printed[f[1]]; dup {
				t.Errorf("metric %s printed twice", f[1])
			}
			printed[f[1]] = f[2]
		}
	}
	if len(printed) != len(table) || len(res.Metrics) != len(table) {
		t.Errorf("printed %d metrics, record has %d, table has %d", len(printed), len(res.Metrics), len(table))
	}
	for _, d := range table {
		if printed[d.Name] != d.Unit {
			t.Errorf("metric %s printed with unit %q, want %q", d.Name, printed[d.Name], d.Unit)
		}
		if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("record metric %s = %+v, want unit %q", d.Name, got, d.Unit)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := smokeConfig(t, name, trace)
			var out bytes.Buffer
			res, err := run(cfg, w, &out, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || exitCode(res, nil) != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			parsed, raw := lastLine(t, out.String())
			if want := []string{"attempted", "correct", "failed", "metrics"}; len(raw) != len(want) {
				t.Errorf("%s: result record has keys %v, want exactly %v", name, raw, want)
			}
			if !trace {
				checkMetrics(t, out.String(), parsed, endToEnd)
				for _, d := range endToEnd {
					if parsed.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, parsed.Metrics[d.Name].Value)
					}
				}
				continue
			}
			checkMetrics(t, out.String(), parsed, perLayer)
			// A traced run whose spans did not tile their calls exactly once
			// would have counted failed ops above.
			if parsed.Metrics["trace.spans"].Value < 1 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
			data, err := os.ReadFile(filepath.Join(cfg.outDir, name+".spans.json"))
			if err != nil {
				t.Fatalf("%s: spans file: %v", name, err)
			}
			var file struct {
				Env   envStamp
				Spans []map[string]any
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatalf("%s: spans file does not parse: %v", name, err)
			}
			if file.Env.Workload != name || file.Env.Seed != cfg.seed || len(file.Spans) == 0 {
				t.Errorf("%s: spans file env %+v with %d spans", name, file.Env, len(file.Spans))
			}
		}
	}
}

// A broken body must turn into failed ops and a non-zero exit, after the
// record is printed.
func TestCorruptedBodyFails(t *testing.T) {
	corrupt := map[string]func(w workload){
		"iter_fine": func(w workload) {
			w.(*iterFine).kernel = func(dst, src []float64, lo, hi int) {
				stencil3(dst, src, lo, hi)
				dst[lo] = 0 // one element per chunk is wrong
			}
		},
		"skew_coarse": func(w workload) {
			w.(*skewCoarse).kernel = func(out, x []float64, steps []int32, bias float64, lo, hi int) {
				sqrtChain(out, x, steps, bias, lo+1, hi) // the chunk's first iteration is skipped
			}
		},
		"serve_mixed": func(w workload) {
			w.(*serveMixed).mix = func(x uint64) uint64 { return mix64(x) | 1 }
		},
	}
	for name, breakBody := range corrupt {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		breakBody(w)
		var out bytes.Buffer
		res, err := run(smokeConfig(t, name, false), w, &out, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parsed, _ := lastLine(t, out.String())
		if res.Correct || res.Failed == 0 || parsed.Correct || parsed.Failed != res.Failed || exitCode(res, nil) == 0 {
			t.Errorf("%s with a corrupted body: correct=%v failed=%d exit=%d", name, res.Correct, res.Failed, exitCode(res, nil))
		}
	}

	// nas_suite's bodies are not the benchmark's: corrupt the expected result
	// instead of a kernel.
	ns := &nasSuite{}
	ns.W, ns.seed, ns.scale = 2, 7, 200
	ns.setup()
	defer ns.close()
	ns.epoch(nil)
	ns.want.ep.Sx++
	if failed := ns.check(); failed != nasPasses {
		t.Errorf("nas_suite against a wrong expectation: %d passes failed, want %d", failed, nasPasses)
	}
}

func TestSeededInputs(t *testing.T) {
	a, b, c := serveSchedule(11, 400), serveSchedule(11, 400), serveSchedule(12, 400)
	if !reflect.DeepEqual(a, b) {
		t.Error("request schedule differs between two runs of one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("request schedule is the same for two seeds")
	}
	count := map[request]int{}
	for _, r := range a {
		count[r]++
	}
	if len(count) != serveKinds*serveSizes {
		t.Errorf("schedule has %d (kind, size) pairs, want %d", len(count), serveKinds*serveSizes)
	}
	for r, n := range count {
		if n != 400/(serveKinds*serveSizes) {
			t.Errorf("pair %+v appears %d times, want every pair equally often", r, n)
		}
	}

	seen := map[bool]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		if skewLowFirst(seed) != skewLowFirst(seed) {
			t.Errorf("skew orientation of seed %d is not deterministic", seed)
		}
		seen[skewLowFirst(seed)] = true
	}
	if len(seen) != 2 {
		t.Error("skew orientation never changes with the seed")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	// Children given out of order; two overlap, one is nested, one is apart.
	children := []interval{{70, 80}, {20, 50}, {10, 30}, {25, 40}}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time = %d, want 100 - (40 + 10) = 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	if got := unionLen([]interval{{0, 10}, {10, 20}}); got != 20 {
		t.Errorf("union of touching intervals = %d, want 20", got)
	}
}

func TestTiles(t *testing.T) {
	ok := []chunkSpan{{lo: 8, hi: 16}, {lo: 0, hi: 8}, {lo: 16, hi: 20}}
	if !tiles(ok, 20) {
		t.Error("three chunks covering [0, 20) once reported as not tiling")
	}
	for name, bad := range map[string][]chunkSpan{
		"gap":     {{lo: 0, hi: 8}, {lo: 9, hi: 20}},
		"overlap": {{lo: 0, hi: 10}, {lo: 8, hi: 20}},
		"twice":   {{lo: 0, hi: 20}, {lo: 0, hi: 20}},
		"short":   {{lo: 0, hi: 19}},
	} {
		if tiles(bad, 20) {
			t.Errorf("%s: reported as tiling [0, 20) exactly once", name)
		}
	}
}

// Values from Python: statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of 3,1,4,1,5 = %v, %v; want 1, 4.5", q1, q3)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %v, want %v", spec.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	setup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: d.Bound}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
