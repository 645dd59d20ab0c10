package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestAutoAblationSmoke runs a miniature version of the Auto-vs-fixed
// ablation. Machine noise makes tight ratio assertions flaky in CI, so
// this checks structure and sanity: every cell measured, a best fixed
// strategy picked, Auto converged to a nameable choice, and its cost in
// the same order of magnitude as the best fixed strategy. The full-size
// ablation is the last section of cmd/paperrepro.
func TestAutoAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation timing loop")
	}
	results := AutoAblation{
		Workers: 4,
		Seed:    42,
		Reps:    48,
		Workloads: []AutoWorkload{
			{Name: "uniform", N: 512, Units: func(i int) int { return 200 }},
			{Name: "fine", N: 1 << 13, Units: func(i int) int { return 8 }},
		},
	}.Run()
	if len(results) != 2 {
		t.Fatalf("2 workloads produced %d results", len(results))
	}
	for _, r := range results {
		if len(r.FixedNs) != 4 {
			t.Fatalf("%s: %d fixed strategies measured, want 4", r.Workload, len(r.FixedNs))
		}
		for name, ns := range r.FixedNs {
			if ns <= 0 {
				t.Fatalf("%s: fixed strategy %s measured %v ns/iter", r.Workload, name, ns)
			}
		}
		if r.BestFixed == "" || r.BestNs <= 0 {
			t.Fatalf("%s: no best fixed strategy: %+v", r.Workload, r)
		}
		if r.AutoNs <= 0 {
			t.Fatalf("%s: auto measured %v ns/iter", r.Workload, r.AutoNs)
		}
		if r.AutoChoice == "" || r.AutoChoice == "none" {
			t.Fatalf("%s: auto left no tuner profile", r.Workload)
		}
		// Very loose sanity bound; cmd/paperrepro prints the real distance.
		if r.AutoNs > 10*r.BestNs {
			t.Fatalf("%s: auto converged to %.1f ns/iter, best fixed is %.1f",
				r.Workload, r.AutoNs, r.BestNs)
		}
	}
	var buf bytes.Buffer
	RenderAutoResults(&buf, results)
	out := buf.String()
	for _, want := range []string{"uniform", "fine", "auto choice", "vanilla"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
