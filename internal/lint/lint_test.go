package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// fixtures names every package under testdata/src: one per analyzer,
// plus the engine's suppression fixture.
var fixtures = []string{"atomicmix", "cacheline", "lockorder", "loopcapture", "looperr", "noalloc", "protocol", "suppress"}

// TestGolden runs every analyzer over each fixture package under
// testdata/src and compares the surviving diagnostics against the
// committed golden file. Each fixture mixes positive cases (must be
// reported), negative cases (must not be), and suppressed cases
// (reported by the analyzer, removed by a //lint:ignore directive) —
// the golden file pins all three behaviors at once, since a suppressed
// or negative case leaking through changes the output.
//
// Regenerate with: go test ./internal/lint -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			root := moduleRoot(t)
			ctx, err := Load(root, []string{"./internal/lint/testdata/src/" + name}, false)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", name, err)
			}
			diags := Run(ctx, Analyzers)
			var b strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			}
			// Messages may embed positions (atomicmix points at an example
			// atomic access); strip the machine-dependent module root so the
			// golden files are stable across checkouts.
			got := strings.ReplaceAll(b.String(), root+string(filepath.Separator), "")

			golden := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestGoldenHasFindings guards the guard: a golden file that becomes
// empty means the fixture's positive cases stopped firing — the
// analyzer went blind, which a pure golden comparison would happily
// pin as the new expected output via -update.
func TestGoldenHasFindings(t *testing.T) {
	for _, name := range fixtures {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatalf("reading golden for %s: %v", name, err)
		}
		if len(strings.TrimSpace(string(data))) == 0 {
			t.Errorf("golden file for %s is empty: the fixture's positive cases no longer fire", name)
		}
		if name == "suppress" {
			continue // exercises the engine, not one analyzer
		}
		if !strings.Contains(string(data), ": "+name+": ") {
			t.Errorf("golden file for %s contains no %s findings", name, name)
		}
	}
}

// TestRepoIsClean asserts that schedlint finds nothing in the module
// itself: every true positive is fixed and every deliberate exception
// carries an annotated suppression. go list's ./... wildcard skips
// testdata directories, so the deliberately broken fixtures above do
// not trip this.
func TestRepoIsClean(t *testing.T) {
	ctx, err := Load(moduleRoot(t), []string{"./..."}, false)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(ctx, Analyzers)
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestLoadFailureIsLoud pins the loader's failure mode: a package that
// does not compile must fail the whole run with a diagnostic naming the
// problem — never silently shrink the analyzed set, which would turn
// "the linter saw nothing" into "the linter saw nothing it could load".
func TestLoadFailureIsLoud(t *testing.T) {
	_, err := Load(moduleRoot(t), []string{"./internal/lint/testdata/src/broken"}, false)
	if err == nil {
		t.Fatal("Load succeeded on a package that does not type-check")
	}
	msg := err.Error()
	if !strings.Contains(msg, "refusing to analyze a reduced set") {
		t.Errorf("error does not state the refusal policy: %v", err)
	}
	if !strings.Contains(msg, "broken.go") {
		t.Errorf("error does not name the offending file: %v", err)
	}
}

// TestSuppressionEdgeCases spells out the engine behaviors the suppress
// golden file pins implicitly, so a regression names the broken rule
// instead of showing a wall of golden diff.
func TestSuppressionEdgeCases(t *testing.T) {
	ctx, err := Load(moduleRoot(t), []string{"./internal/lint/testdata/src/suppress"}, false)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []string
	for _, d := range Run(ctx, Analyzers) {
		got = append(got, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
	}
	all := strings.Join(got, "\n")

	contains := func(what, substr string) {
		t.Helper()
		if !strings.Contains(all, substr) {
			t.Errorf("no %s finding (want substring %q) in:\n%s", what, substr, all)
		}
	}
	contains("unknown-analyzer", `unknown analyzer "nosuchanalyzer"`)
	contains("stale-suppression", "stale suppression")
	// The wrong-analyzer directive must not have eaten the cacheline
	// finding on the mismatch type.
	contains("surviving cacheline", "cacheline: ")

	// Per-name bookkeeping: the used cacheline name in the comma list
	// must NOT be stale, so exactly the two unused names (the mismatch
	// atomicmix and the stacked/comma looperr directives) plus nothing
	// else may go stale.
	stale := 0
	for _, g := range got {
		if strings.Contains(g, "stale suppression") {
			stale++
		}
	}
	if stale != 3 {
		t.Errorf("want exactly 3 stale-suppression findings (atomicmix mismatch, comma-list looperr, stacked looperr), got %d in:\n%s", stale, all)
	}
}

// TestProtodocInSync guards the generated section of DESIGN.md: the
// committed tables must match what schedlint -protodoc would write for
// the current source, or the docs describe a protocol nobody runs.
func TestProtodocInSync(t *testing.T) {
	root := moduleRoot(t)
	ctx, err := Load(root, []string{"./..."}, false)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	section := ProtocolDoc(ctx)
	design := filepath.Join(root, "DESIGN.md")
	content, err := os.ReadFile(design)
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	want, err := SpliceProtocolDoc(string(content), section)
	if err != nil {
		t.Fatalf("splicing: %v", err)
	}
	if string(content) != want {
		t.Error("DESIGN.md protocol tables are out of date: run `go run ./cmd/schedlint -protodoc DESIGN.md ./...`")
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}
