package hybridloop_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
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

// servedOrder runs, on one P and a one-worker pool, an endless background
// loop of weight bg whose chunks are 100 µs poll windows, and submits one
// loop of each weight in fg, in that order. The background loop's first
// chunk holds off its polls until all of them are queued. servedOrder
// returns what the worker ran from then on, in order: "bg" for a
// background window, the index into fg for a submitted loop. The
// background loop's first window is its stride measurement, with no poll
// after it, so the first poll follows the second "bg".
func servedOrder(t *testing.T, bg int, fg ...int) []string {
	t.Helper()
	requireSerialPackage(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := hybridloop.NewPool(1, hybridloop.WithSeed(1))
	defer pool.Close()
	var (
		mu            sync.Mutex
		log           []string
		queued        atomic.Int64
		stop, started atomic.Bool
	)
	note := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	errStop := errors.New("stop")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = pool.ForErr(0, 1<<30, func(lo, hi int) error {
			if started.CompareAndSwap(false, true) {
				for queued.Load() < int64(len(fg)) {
					runtime.Gosched()
				}
			}
			if stop.Load() {
				return errStop
			}
			for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
			}
			note("bg")
			return nil
		}, hybridloop.WithPriority(bg), hybridloop.WithChunk(1))
	}()
	for !started.Load() {
		runtime.Gosched()
	}
	var wg sync.WaitGroup
	for i, weight := range fg {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// On one P nothing else runs between this count and the
			// submission's enqueue, where the goroutine blocks.
			queued.Add(1)
			pool.For(0, 64, func(lo, hi int) { note(strconv.Itoa(i)) },
				hybridloop.WithPriority(weight), hybridloop.WithChunk(64))
		}()
		for queued.Load() <= int64(i) {
			runtime.Gosched()
		}
	}
	wg.Wait()
	stop.Store(true)
	<-done
	mu.Lock()
	defer mu.Unlock()
	// Drop the windows run while the last caller waited for the P.
	last := len(log) - 1
	for last >= 0 && log[last] == "bg" {
		last--
	}
	log = log[:min(len(log), last+2)]
	t.Logf("served (bg %d, fg %v): %v", bg, fg, log)
	return log
}

// TestServeHeaviestFirst: a weight-8 loop queued behind a weight-1 loop
// runs first.
func TestServeHeaviestFirst(t *testing.T) {
	log := servedOrder(t, 8, 1, 8)
	if i, j := slices.Index(log, "1"), slices.Index(log, "0"); i < 0 || j < 0 || i > j {
		t.Fatalf("the weight-8 loop ran at %d, the weight-1 loop queued before it at %d: want the heavier first", i, j)
	}
}

// TestServeHeavierRootsBackToBack: inside an endless weight-1 loop, ten
// pending weight-8 loops run back to back, eight (⌊8/1⌋) at the first
// poll and the other two at the next, with one background window between.
func TestServeHeavierRootsBackToBack(t *testing.T) {
	fg := make([]int, 10)
	for i := range fg {
		fg[i] = 8
	}
	var runs []int // lengths of the runs of submitted loops between windows
	n := 0
	for _, s := range servedOrder(t, 1, fg...) {
		switch {
		case s != "bg":
			n++
		case n > 0:
			runs, n = append(runs, n), 0
		}
	}
	if n > 0 {
		runs = append(runs, n)
	}
	if !slices.Equal(runs, []int{8, 2}) {
		t.Fatalf("submitted loops ran in runs of %v between background windows, want [8 2]", runs)
	}
}

// TestServeLighterRootEveryHthPoll: inside an endless weight-8 loop, a
// pending weight-1 loop waits out some polls, but runs by the ⌈8/1⌉-th.
func TestServeLighterRootEveryHthPoll(t *testing.T) {
	log := servedOrder(t, 8, 1)
	at := slices.Index(log, "0")
	if at < 0 {
		t.Fatal("the weight-1 loop never ran")
	}
	// Every window but the first is followed by a poll.
	if polls := at - 1; polls < 2 || polls > 8 {
		t.Fatalf("the weight-1 loop ran at the background loop's poll %d, want after the first and by the 8th", polls)
	}
}
