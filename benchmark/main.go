// Command benchmark is the repository's benchmark. One invocation runs one
// workload for -seconds seconds, verifies its outputs and prints every metric
// by name with unit and value; the last line of standard output is the JSON
// record the benchmark driver reads.
//
//	go run ./benchmark -workload iter_fine -seed 1             # end-to-end metrics
//	go run ./benchmark -workload iter_fine -seed 1 -trace 1    # per-layer metrics + spans file
//	go run ./benchmark -workload iter_fine -seed 1 -aa 3       # A/A check of the bounds
//
// See README.md in this directory for the metric tables and the reasons
// behind each workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start: package variables are initialised
// before main, a few hundred microseconds after exec.
var procStart = time.Now()

const (
	maxWorkers   = 4
	warmupEpochs = 1
	// setupRounds is the number of rounds an untraced run divides its time
	// into. A round is a set-up, the warm-up epochs and measured epochs until
	// its share of the time is up; setup_s is the median over the rounds, which
	// lie a quarter of the run apart so that a slow second of the host meets
	// one of them.
	setupRounds = 4
	// The traced run spends these shares of its time on untraced epochs
	// (counters, the baseline of trace.overhead_frac) and on traced ones; the
	// probes take what is left.
	untracedShare, tracedShare = 0.35, 0.35
	// slowPairFactor marks a pair as disturbed in the informational line.
	slowPairFactor = 1.5
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	aa       int
	outDir   string
	// pairsFile, when set, receives every measured pair of the untraced
	// epochs, one line a pair, for studying the noise of a host.
	pairsFile string
	// budget is the run's time, -seconds on the command line, and rounds the
	// number of set-ups of an untraced run; the smoke tests shorten both.
	budget time.Duration
	rounds int
	// scale divides every workload's per-epoch op count; the smoke tests
	// run at 1/200 size, the command line always at 1.
	scale int
	// probeMin is the least time one probe timing lasts.
	probeMin time.Duration
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if cfg.aa > 0 {
		return runAA(cfg, stdout, stderr)
	}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	res, err := run(cfg, w, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
	}
	return exitCode(res, err)
}

// exitCode is 0 only for a run that was made and in which no op failed.
func exitCode(res result, err error) int {
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{outDir: "benchmark/out", rounds: setupRounds, scale: 1, probeMin: 50 * time.Millisecond}
	fs.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload generator and of the pool's victim RNG")
	fs.IntVar(&cfg.seconds, "seconds", 28, "how long the run lasts, set-ups included; the last epoch may overrun it")
	fs.StringVar(&cfg.pairsFile, "pairs", "", "write every measured pair of the untraced epochs to this file")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans file, probes")
	fs.IntVar(&cfg.aa, "aa", 0, "A/A mode: run this many back-to-back sets of 5 runs and compare them (3 is the usual value)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.seconds < 1 || cfg.seconds > 60 {
		return cfg, fmt.Errorf("-seconds %d outside 1..60", cfg.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	cfg.trace = *trace == 1
	cfg.budget = time.Duration(cfg.seconds) * time.Second
	return cfg, nil
}

// metricValue is one reported metric; the JSON shape is the driver's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envStamp is printed before the metrics of every run and written into the
// spans file, so a number can be traced back to the code and host it came
// from.
type envStamp struct {
	Workload   string         `json:"workload"`
	Commit     string         `json:"commit"`
	Go         string         `json:"go"`
	W          int            `json:"W"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Seed       uint64         `json:"seed"`
	Traced     bool           `json:"traced"`
	Seconds    float64        `json:"seconds"`
	Setups     int            `json:"setups"`
	Sizes      map[string]int `json:"sizes"`
}

func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// workers applies the run shape shared by all workloads: W = min(nproc, 4)
// and GOMAXPROCS = W.
func workers() (w, nproc int) {
	nproc = runtime.NumCPU()
	w = min(nproc, maxWorkers)
	runtime.GOMAXPROCS(w)
	return w, nproc
}

func warnIfLoaded(nproc int, stderr io.Writer) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return // no load average on this platform
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return
	}
	if load, err := strconv.ParseFloat(fields[0], 64); err == nil && load > float64(nproc)/2 {
		fmt.Fprintf(stderr, "benchmark: warning: 1-minute load average %.2f exceeds nproc/2 = %.1f; timings will be noisy\n",
			load, float64(nproc)/2)
	}
}

// run executes one workload as cfg describes and prints its metrics. It
// returns an error only when the run could not be made; failed ops are
// reported through the result.
func run(cfg config, w workload, stdout, stderr io.Writer) (result, error) {
	W, nproc := workers()
	warnIfLoaded(nproc, stderr)
	b := w.common()
	b.W, b.seed, b.scale = W, cfg.seed, cfg.scale
	rounds := cfg.rounds
	if cfg.trace {
		rounds = 1
	}
	stamp := envStamp{
		Workload: cfg.workload, Commit: commitID(), Go: runtime.Version(),
		W: W, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc, Seed: cfg.seed,
		Traced: cfg.trace, Seconds: cfg.budget.Seconds(), Setups: rounds,
	}

	res := result{Metrics: map[string]metricValue{}}
	var m measurement
	var rawS, setupS []float64
	table, vals := endToEnd, map[string]float64{}
	start := procStart // the first set-up is timed from process start
	for r := 0; r < rounds; r++ {
		raw, normalised := setUp(w, start, &res)
		rawS, setupS = append(rawS, raw), append(setupS, normalised)
		if r == 0 {
			stamp.Sizes = w.sizes()
			stampJSON, err := json.Marshal(stamp)
			if err != nil {
				return result{}, err
			}
			fmt.Fprintf(stdout, "env %s\n", stampJSON)
		}
		var err error
		if cfg.trace {
			table = perLayer
			err = tracedRound(cfg, w, start, &m, stamp, vals, &res, stdout, stderr)
		} else {
			m.measure(w, start.Add(cfg.budget/time.Duration(rounds)), nil)
		}
		w.close()
		if err != nil {
			return result{}, err
		}
		start = time.Now()
	}
	res.Attempted += m.ops
	res.Failed += m.failed
	res.Correct = res.Failed == 0
	if !cfg.trace {
		vals = endToEndValues(m, median(setupS))
	}

	for _, d := range table {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		fmt.Fprintf(stdout, "metric %-28s %-6s %s\n", d.Name, d.Unit, formatValue(vals[d.Name]))
	}
	fmt.Fprintf(stdout, "info set-ups as timed %.4g s, at nominal host speed %.4g s\n", rawS, setupS)
	med, slow := m.speedup(), 0
	for _, p := range m.pairs() {
		if p.speedup() < med/slowPairFactor {
			slow++
		}
	}
	fmt.Fprintf(stdout, "info untraced epochs %d, pairs %d, of which under 1/%.1f of the reported speedup: %d\n",
		len(m.epochs), len(m.pairs()), slowPairFactor, slow)
	fmt.Fprintf(stdout, "info as timed: %.6g ops/s, op p50 %.6g us, serial op %.6g us (nominal %.6g us)\n",
		m.opsPerS(), median(m.latUs()), m.serialOpNs()/1e3, b.nominalNs/1e3)
	fmt.Fprintf(stdout, "info ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	if cfg.pairsFile != "" {
		if err := writePairs(cfg.pairsFile, m); err != nil {
			return result{}, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// setUp makes the workload's set-up followed by the warm-up epochs, timed
// from start. It returns the time as measured and the time scaled to a host
// of nominal speed: the set-up's own serial reference pass says how fast the
// host was while it ran. Warm-up ops count as attempted and, when they fail
// verification, as failed; their samples are dropped.
func setUp(w workload, start time.Time, res *result) (rawS, normalisedS float64) {
	b := w.common()
	w.setup()
	from := b.mark()
	for e := 0; e < warmupEpochs; e++ {
		w.epoch(nil)
		res.Attempted += b.opsEpoch
		res.Failed += w.check()
	}
	b.rewind(from)
	rawS = time.Since(start).Seconds()
	return rawS, rawS * b.nominalNs / b.serialNs
}

// writePairs writes the measured pairs, one line each: epoch, ops, serial ns
// per op, burst wall ns, burst CPU ns, the burst's median latency over serial.
func writePairs(path string, m measurement) error {
	var buf []byte
	ps := m.pairs()
	for e, r := range m.epochs {
		for _, p := range ps[r[0]:r[1]] {
			buf = fmt.Appendf(buf, "%d %d %.0f %.0f %.0f %.6g\n", e, p.ops, p.serialNs, p.wallNs, p.cpuNs, p.p50Rel)
		}
	}
	return os.WriteFile(path, buf, 0o644)
}

// tracedRound is what a traced run does after its set-up: untraced epochs
// into m with the runtime's counters read around them, traced epochs, span
// analysis, the spans file and the probes. It fills vals with every per-layer
// value.
func tracedRound(cfg config, w workload, start time.Time, m *measurement, stamp envStamp,
	vals map[string]float64, res *result, stdout, stderr io.Writer) error {
	share := func(f float64) time.Time { return start.Add(time.Duration(f * float64(cfg.budget))) }
	before := readCounters(w)
	m.measure(w, share(untracedShare), nil)
	after := readCounters(w)
	counterValues(vals, *m, before, after, w)
	apiValues(vals, *m)

	tr := newTracer(stamp.W, w.clients())
	var tm measurement
	tm.measure(w, share(untracedShare+tracedShare), tr)
	res.Attempted += tm.ops
	res.Failed += tm.failed
	ix := tr.index()
	sum := tr.analyze(ix, stamp.W)
	spanValues(vals, sum)
	vals["trace.overhead_frac"] = 1 - tm.speedup()/m.speedup()
	if bad := sum.tilingErrors + sum.containErrors; bad > 0 {
		fmt.Fprintf(stderr, "benchmark: %d traced calls not tiled exactly once, %d chunk spans outside their call\n",
			sum.tilingErrors, sum.containErrors)
		res.Failed += bad
	}
	fmt.Fprintf(stdout, "info traced epochs %d, calls %d, spans dropped %d, call self time p50 %.2f us\n",
		len(tm.epochs), sum.calls, tr.dropped.Load(), percentileOf(sum.selfUs, 0.50))
	path, err := ix.writeFile(cfg.outDir, cfg.workload, stamp)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "info spans written to %s\n", path)
	w.extra(vals)
	runProbes(vals, cfg.workload, stamp.W, cfg.probeMin)
	return nil
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
