// Command claimviz visualizes the hybrid scheme's claiming machinery for
// small worker counts — the worked examples of the paper's Sections III
// and IV: per-worker claim orders (the XOR bijection), the failure-skip
// walk (i += i & -i), and the index/partition groups of the Lemma 2
// proof. Useful for building intuition and for checking the structures by
// hand.
//
// Usage: claimviz [-r 8] [-scenario "0:0,1:2"]
//
// The scenario flag simulates workers entering at given claim-step times
// ("worker:step" pairs) and prints who claims what.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hybridloop/internal/core"
)

func main() {
	r := flag.Int("r", 8, "number of partitions (power of two)")
	scenario := flag.String("scenario", "", "comma-separated worker:arrival pairs, e.g. 0:0,2:1,5:3")
	flag.Parse()

	if *r < 1 || *r&(*r-1) != 0 {
		fail(fmt.Errorf("r = %d is not a power of two", *r))
	}
	var arrivals []arrival
	if *scenario != "" {
		var err error
		if arrivals, err = parseScenario(*scenario, *r); err != nil {
			fail(err)
		}
	}

	fmt.Printf("Claim orders for R = %d (worker w visits partition i XOR w):\n\n", *r)
	for w := 0; w < *r; w++ {
		fmt.Printf("  worker %2d: %v\n", w, core.ClaimOrder(w, *r))
	}

	fmt.Printf("\nFailure skips (i += i & -i), from each index until the sequence ends:\n\n")
	for i := 1; i < *r; i++ {
		path := []int{i}
		for j := core.NextIndex(i); j < *r; j = core.NextIndex(j) {
			path = append(path, j)
		}
		fmt.Printf("  from i=%2d: %v -> exit\n", i, path)
	}

	logR := 0
	for 1<<logR < *r {
		logR++
	}
	fmt.Printf("\nIndex groups I(x, n) (Lemma 2 machinery):\n\n")
	for n := 0; n <= logR; n++ {
		fmt.Printf("  level %d:", n)
		for x := 0; x < *r>>n; x++ {
			fmt.Printf(" %v", core.IndexGroup(x, n))
		}
		fmt.Println()
	}

	if *scenario == "" {
		return
	}
	fmt.Printf("\nScenario %s over %d partitions:\n\n", *scenario, *r)
	runScenario(arrivals, *r)
}

// fail reports a usage error on stderr and exits 2.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "claimviz:", err)
	os.Exit(2)
}

type arrival struct{ worker, step int }

// parseScenario parses "worker:step" pairs, each worker in [0, r) and at
// most once, into arrivals sorted by step.
func parseScenario(s string, r int) ([]arrival, error) {
	var out []arrival
	seen := make(map[int]bool)
	for _, pair := range strings.Split(s, ",") {
		ws, ts, ok := strings.Cut(pair, ":")
		w, err1 := strconv.Atoi(ws)
		t, err2 := strconv.Atoi(ts)
		if !ok || err1 != nil || err2 != nil || w < 0 || w >= r || t < 0 {
			return nil, fmt.Errorf("bad pair %q: want worker:step, worker in [0, %d), step >= 0", pair, r)
		}
		if seen[w] {
			return nil, fmt.Errorf("worker %d enters twice", w)
		}
		seen[w] = true
		out = append(out, arrival{w, t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].step < out[j].step })
	return out, nil
}

// runScenario steps time forward; at each step every arrived worker makes
// one claim attempt (round-robin in arrival order), printing the outcome.
func runScenario(arrivals []arrival, r int) {
	ps := core.NewPartitionSetR(0, r*100, r)
	claimers := map[int]*core.Claimer{}
	var active []int
	next := 0
	for step := 0; ; step++ {
		for next < len(arrivals) && arrivals[next].step <= step {
			w := arrivals[next].worker
			claimers[w] = core.NewClaimer(ps, w)
			active = append(active, w)
			fmt.Printf("  t=%2d: worker %d enters the loop\n", step, w)
			next++
		}
		if len(active) == 0 && next >= len(arrivals) {
			break
		}
		var still []int
		for _, w := range active {
			c := claimers[w]
			p, ok := c.Next()
			if ok {
				fmt.Printf("  t=%2d: worker %d claims partition %d (failed so far: %d)\n",
					step, w, p, c.Failed())
			}
			if c.Done() {
				fmt.Printf("  t=%2d: worker %d exits to work stealing (claimed sequence done)\n", step, w)
			} else {
				still = append(still, w)
			}
		}
		active = still
		if next >= len(arrivals) && len(active) == 0 {
			break
		}
	}
	fmt.Printf("\n  all partitions claimed: %v, total failed claims: %d\n",
		ps.AllClaimed(), ps.FailedClaims())
}
