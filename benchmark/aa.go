package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// aaRuns is the number of runs in one A/A set.
const aaRuns = 5

// runAA measures the benchmark's own noise: cfg.aa back-to-back sets of
// aaRuns runs of one workload on this binary, each run a fresh process and
// each set over the same seeds. For every end-to-end metric it prints the
// sets' medians, the largest relative difference between two set medians and
// the widest interquartile spread of a set, and it fails when either exceeds
// the metric's bound.
func runAA(cfg config, stdout, stderr io.Writer) int {
	if _, err := newWorkload(cfg.workload); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	sets := make([]map[string][]float64, cfg.aa)
	for s := range sets {
		sets[s] = map[string][]float64{}
		for r := 0; r < aaRuns; r++ {
			seed := cfg.seed + uint64(r)
			res, err := runChild(self, cfg, seed, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: set %d run %d: %v\n", s, r, err)
				return 1
			}
			for name, v := range res.Metrics {
				sets[s][name] = append(sets[s][name], v.Value)
			}
			fmt.Fprintf(stdout, "aa set %d run %d seed %d done\n", s, r, seed)
		}
	}
	fmt.Fprintf(stdout, "aa %s: %d sets of %d runs\n", cfg.workload, cfg.aa, aaRuns)
	fmt.Fprintf(stdout, "%-16s %-6s %8s %8s %6s  set medians\n", "metric", "unit", "max diff", "max iqr", "bound")
	code := 0
	for _, d := range endToEnd {
		var meds []float64
		var maxIQR float64
		for _, set := range sets {
			med := median(set[d.Name])
			meds = append(meds, med)
			q1, q3 := quartiles(set[d.Name])
			maxIQR = max(maxIQR, (q3-q1)/med)
		}
		var maxDiff float64
		for i := range meds {
			for j := range meds {
				maxDiff = max(maxDiff, math.Abs(meds[i]-meds[j])/min(meds[i], meds[j]))
			}
		}
		verdict := ""
		// The driver holds the spread of setup_s to no bound, only its median.
		if maxDiff > d.Bound || (maxIQR > d.Bound && d.Name != "setup_s") {
			verdict = "  EXCEEDS BOUND"
			code = 1
		}
		fmt.Fprintf(stdout, "%-16s %-6s %8.4f %8.4f %6.2f  %v%s\n", d.Name, d.Unit, maxDiff, maxIQR, d.Bound, meds, verdict)
	}
	return code
}

// runChild runs one untraced run in a fresh process and parses the result
// record from the last line of its standard output.
func runChild(self string, cfg config, seed uint64, stderr io.Writer) (result, error) {
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported %d failed ops", res.Failed)
	}
	return res, nil
}
