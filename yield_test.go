package hybridloop_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hybridloop"
)

// requireSerialPackage fails t if any test file of this package calls
// Parallel() (as on a *testing.T): GOMAXPROCS is process-wide, so a parallel test would
// run at one P while chunksAfterJoin holds it there, and its own timing
// would skew the measurement.
func requireSerialPackage(t *testing.T) {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("listing the package's test files: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parallel" && len(call.Args) == 0 {
					t.Fatalf("%s: a parallel test would share chunksAfterJoin's single P", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
}

// chunksAfterJoin measures what a loop's caller waits for after the loop's
// last chunk. On one P (GOMAXPROCS 1, restored afterwards) and a
// one-worker pool, an endless background loop of weight bg runs on the
// only worker and counts its chunks, each 100 µs of work, so its poll
// window is one chunk. Five loops of weight fg are then started from this
// goroutine, one after another; each is submitted, run by the worker in a
// detour from the background loop, and joined. It returns the median
// number of background chunks that ran between such a loop's last chunk
// and its return, and logs all five, so a failure shows the raw
// distribution. The median absorbs the scheduler's occasional pick of the
// global run queue over the woken caller. Callers compare it with
// relative thresholds (at most one window against at least two), which
// hold under -race too.
func chunksAfterJoin(t *testing.T, bg, fg int) int64 {
	t.Helper()
	requireSerialPackage(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := hybridloop.NewPool(1, hybridloop.WithSeed(1))
	defer pool.Close()
	var chunks atomic.Int64
	var stop atomic.Bool
	errStop := errors.New("stop")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			_ = pool.ForErr(0, 1<<30, func(lo, hi int) error {
				if stop.Load() {
					return errStop
				}
				for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
				}
				chunks.Add(1)
				return nil
			}, hybridloop.WithPriority(bg), hybridloop.WithChunk(1))
		}
	}()
	defer func() { stop.Store(true); <-done }()
	for chunks.Load() < 3 {
		runtime.Gosched()
	}
	var after []int64
	for k := 0; k < 5; k++ {
		var last int64
		pool.For(0, 64, func(lo, hi int) { last = chunks.Load() },
			hybridloop.WithPriority(fg), hybridloop.WithChunk(8))
		after = append(after, chunks.Load()-last)
	}
	slices.Sort(after)
	t.Logf("background chunks after the join (bg %d, fg %d): %v", bg, fg, after)
	return after[len(after)/2]
}

// TestJoinYieldToHeavierCaller: the worker that finishes a priority-8 loop
// it started in a detour from a priority-1 loop hands its P to the loop's
// blocked caller at once, so the caller returns within one poll window of
// the background loop. Without the yield the caller waits in the run
// queue until the worker is preempted, about a hundred chunks later.
func TestJoinYieldToHeavierCaller(t *testing.T) {
	if n := chunksAfterJoin(t, 1, 8); n > 1 {
		t.Fatalf("the caller returned %d background chunks after its loop's last chunk, want at most one poll window (1)", n)
	}
}

// TestJoinYieldKeepsPForEqualOrHeavierLoop: a worker whose detour root's
// loop is not heavier than the loop it interrupted keeps its P for that
// loop, whose remainder only it can release, so the background loop runs
// on before the caller gets the P back.
func TestJoinYieldKeepsPForEqualOrHeavierLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		bg, fg int
	}{{"equal", 8, 8}, {"heavier", 8, 1}} {
		t.Run(c.name, func(t *testing.T) {
			if n := chunksAfterJoin(t, c.bg, c.fg); n < 2 {
				t.Fatalf("only %d background chunks ran after the join: the worker yielded the interrupted loop's P", n)
			}
		})
	}
}
