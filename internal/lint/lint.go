// Package lint is the analysis engine behind cmd/schedlint: a small,
// stdlib-only static-analysis framework (go/ast + go/types, packages
// located with `go list -json`) hosting the concurrency-invariant
// analyzers this runtime depends on.
//
// The paper's hybrid scheme is correct only because of delicate
// invariants — every partition claimed exactly once via the XOR walk,
// the steal-half CAS protocol on RangeSlot, a single-atomic-word
// cancellation token — and those invariants are invisible to the type
// system: one plain read of an atomically-written field, or one hot
// struct that silently loses its cache-line padding, reintroduces
// exactly the races and false sharing the design exists to avoid.
// Ordinary tests miss these failures (they are probabilistic and
// machine-dependent), so the invariants are enforced statically:
//
//   - atomicmix: a struct field or package-level variable whose address
//     is passed to sync/atomic anywhere in the module must never be
//     plainly read or written elsewhere.
//   - cacheline: structs annotated //sched:cacheline must have a size
//     that is a multiple of the 64-byte cache line per types.Sizes.
//   - loopcapture: closures passed as parallel loop bodies
//     (For/ForEach/ForErr/Reduce/...) must not plainly write variables
//     captured from outside the closure.
//   - looperr: the error results of ForErr/ForEachErr/ForCtx must not
//     be discarded.
//   - protocol: atomic fields annotated //sched:protocol carry a
//     declared state machine; every CompareAndSwap/Store/Swap on the
//     field, module-wide, must perform a declared transition between
//     declared states (arguments are constant-folded through go/types
//     and single-assignment locals).
//   - noalloc: functions annotated //sched:noalloc must contain no
//     allocating construct — escaping composite literals, make/append,
//     map writes, string concatenation, value-to-interface boxing,
//     capturing closures.
//   - lockorder: the module-wide mutex-acquisition graph must be
//     acyclic (a cycle is a potential deadlock), and every acquired
//     lock must be released on every return path.
//
// Deliberate violations are annotated in the source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or a directive line directly above it
// (consecutive directive lines stack); the reason is mandatory, so
// every suppression documents why the code is safe. The engine keeps
// the suppressions honest in both directions: a directive naming an
// analyzer that is not registered, and a directive that no longer
// matches any finding (stale), are themselves findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run receives the full set of
// loaded packages (analyses like atomicmix are module-wide: the atomic
// and the plain access of one field may live in different packages) and
// reports findings through the Context.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(ctx *Context)
}

// Analyzers lists every check cmd/schedlint runs, in output order.
var Analyzers = []*Analyzer{
	AtomicMix,
	CacheLine,
	LockOrder,
	LoopCapture,
	LoopErr,
	NoAlloc,
	Protocol,
}

// Context carries the loaded module through the analyzers and collects
// their findings. All packages share one token.FileSet, so positions
// are comparable across packages.
type Context struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	diags []Diagnostic

	current *Analyzer
}

// Reportf records a finding of the current analyzer at pos.
func (c *Context) Reportf(pos token.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Analyzer: c.current.Name,
		Pos:      c.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the given analyzers over the loaded packages and returns
// the surviving findings, suppressions applied, sorted by position.
func Run(ctx *Context, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		ctx.current = a
		a.Run(ctx)
	}
	ctx.current = nil
	known := map[string]bool{"lint": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := collectSuppressions(ctx, known)
	kept := ctx.diags[:0]
	for _, d := range ctx.diags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	// Stale pass: every suppression must have earned its keep. A
	// directive (or one name of a multi-analyzer directive) that removed
	// no finding this run is dead weight at best and a masked regression
	// at worst — the code it excused has changed, so the excuse must be
	// re-justified or deleted.
	for _, dir := range sup.all {
		for _, name := range dir.analyzers {
			if dir.used[name] {
				continue
			}
			stale := Diagnostic{
				Analyzer: "lint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("stale suppression: no %s finding matches this //lint:ignore; remove or re-justify it", name),
			}
			if !sup.suppressed(stale) {
				kept = append(kept, stale)
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	ctx.diags = kept
	return kept
}

// directive is one parsed //lint:ignore comment. used tracks, per
// analyzer name, whether the directive suppressed at least one finding
// this run — the input to the stale-suppression check.
type directive struct {
	pos       token.Position
	analyzers []string
	used      map[string]bool
}

// suppressions indexes the parsed directives by file and line.
type suppressions struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

// collectSuppressions scans every file's comments for
// //lint:ignore <analyzer>[,<analyzer>...] <reason> directives. Three
// malformations are themselves findings: a directive with no reason (an
// undocumented suppression defeats the point of requiring one), an
// empty name in the comma list, and a name that matches no analyzer in
// this run (a typo there silently un-suppresses nothing and suppresses
// nothing — loud is the only safe behavior).
func collectSuppressions(ctx *Context, known map[string]bool) *suppressions {
	sup := &suppressions{byLine: map[string]map[int][]*directive{}}
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "lint:ignore") {
						continue
					}
					fields := strings.Fields(text)
					pos := ctx.Fset.Position(c.Pos())
					if len(fields) < 3 {
						ctx.diags = append(ctx.diags, Diagnostic{
							Analyzer: "lint",
							Pos:      pos,
							Message:  "malformed directive: want //lint:ignore <analyzer> <reason>",
						})
						continue
					}
					dir := &directive{pos: pos, used: map[string]bool{}}
					for _, name := range strings.Split(fields[1], ",") {
						if name == "" {
							ctx.diags = append(ctx.diags, Diagnostic{
								Analyzer: "lint",
								Pos:      pos,
								Message:  "malformed directive: empty analyzer name in //lint:ignore list",
							})
							continue
						}
						if !known[name] {
							ctx.diags = append(ctx.diags, Diagnostic{
								Analyzer: "lint",
								Pos:      pos,
								Message:  fmt.Sprintf("unknown analyzer %q in //lint:ignore (run `schedlint -list` for the registered names)", name),
							})
							continue
						}
						dir.analyzers = append(dir.analyzers, name)
					}
					byLine := sup.byLine[pos.Filename]
					if byLine == nil {
						byLine = map[int][]*directive{}
						sup.byLine[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], dir)
					sup.all = append(sup.all, dir)
				}
			}
		}
	}
	return sup
}

// suppressed reports whether a matching ignore directive covers the
// diagnostic: on its own line, or on the directive line(s) directly
// above it — consecutive directive lines stack, so several analyzers
// can be suppressed above one statement without sharing a line.
// Matching marks the directive used for the stale check.
func (s *suppressions) suppressed(d Diagnostic) bool {
	byLine := s.byLine[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	match := func(line int) bool {
		for _, dir := range byLine[line] {
			for _, name := range dir.analyzers {
				if name == d.Analyzer {
					dir.used[name] = true
					return true
				}
			}
		}
		return false
	}
	if match(d.Pos.Line) {
		return true
	}
	for line := d.Pos.Line - 1; len(byLine[line]) > 0; line-- {
		if match(line) {
			return true
		}
	}
	return false
}

// walkStack traverses the AST below root, calling fn with each node and
// the stack of its ancestors (outermost first, not including n itself).
// fn returning false prunes the subtree. Analyzers use the stack to
// answer contextual questions plain ast.Inspect cannot, such as "is
// this selector a composite-literal key" or "which function declaration
// encloses this access".
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Pruned: Inspect sends no closing nil for a node whose visit
			// returned false, so nothing is pushed either.
			return false
		}
		stack = append(stack, n)
		return true
	})
}
