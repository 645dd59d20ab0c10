package loop

import (
	"sync/atomic"
	"testing"

	"hybridloop/internal/core"
	"hybridloop/internal/sched"
	"hybridloop/internal/trace"
)

func countKind(tr *trace.Log, k trace.Kind) int {
	n := 0
	for _, ev := range tr.Events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestStealEntryOnlyOnClaim is the regression test for the phantom
// steal-entry bug: TrySteal used to emit trace.StealEntry before the
// claim walk, so a thief that lost every claim race logged an entry while
// Stats.LoopEntries (which counts TrySteal returning true) did not. The
// event must be emitted iff a partition was actually claimed. The claim
// race is reproduced by a goroutine claiming partitions concurrently with
// TrySteal; over many iterations both the win and lose branches occur,
// and the invariant must hold on every one.
func TestStealEntryOnlyOnClaim(t *testing.T) {
	pool := sched.NewPool(2, 1)
	defer pool.Close()
	thief := pool.Worker(1)

	for iter := 0; iter < 300; iter++ {
		ps := core.NewPartitionSet(0, 64, 4)
		tr := trace.New(256)
		h := &hybridLoop{ps: ps}
		// chunk >= the whole range: claimed partitions execute inline
		// with no published range descriptors and no nested spawns, so
		// TrySteal is safe to call from the test goroutine (it touches
		// neither the worker's deque nor its RNG — the steal-half sweep
		// bails out on active == 0 before selecting a victim).
		h.rs.init(pool.P(), &h.g, func(w *sched.Worker, lo, hi int) {}, &Options{Trace: tr, Chunk: 64}, 64)
		h.g.Add(ps.R())

		raced := make(chan struct{})
		go func() {
			defer close(raced)
			c := core.NewClaimer(ps, 0)
			for {
				if _, ok := c.Next(); !ok {
					return
				}
			}
		}()
		entered := false
		if !ps.PeekClaimed(thief.ID()) {
			entered = h.TrySteal(thief)
		}
		<-raced

		want := 0
		if entered {
			want = 1
		}
		if got := countKind(tr, trace.StealEntry); got != want {
			t.Fatalf("iter %d: %d StealEntry events for TrySteal=%v, want %d",
				iter, got, entered, want)
		}
	}
}

// TestRangeSplitMatchesRangeSteals reconciles the trace's RangeSplit
// events against the scheduler's Stats.RangeSteals counter: both count
// exactly the successful StealHalf CASes, so across any set of fully
// traced loops on a freshly reset pool they must agree. Both lazily
// split strategies feed the same rangeSet.trySteal, so both are run,
// with each loop's first chunk gated until a steal lands (so the
// reconciliation is non-vacuous even on one CPU).
func TestRangeSplitMatchesRangeSteals(t *testing.T) {
	pool := sched.NewPool(8, 4242)
	defer pool.Close()
	pool.ResetStats()
	tr := trace.New(1 << 20)

	loops := 10
	if testing.Short() {
		loops = 4
	}
	var sink atomic.Int64
	for i := 0; i < loops; i++ {
		s := DynamicStealing
		if i%2 == 1 {
			s = Hybrid
		}
		ForW(pool, 0, 1<<14, gateFirstChunk(pool, func(w *sched.Worker, lo, hi int) {
			sink.Add(int64(hi - lo))
		}), Options{Strategy: s, Chunk: 8, Trace: tr})
	}

	got := countKind(tr, trace.RangeSplit)
	want := int(pool.Stats().RangeSteals)
	if got != want {
		t.Fatalf("trace has %d RangeSplit events, Stats.RangeSteals = %d — views disagree", got, want)
	}
	if want == 0 {
		t.Fatal("no range steals occurred; the reconciliation was vacuous")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; enlarge the log for this test", tr.Dropped())
	}
}

// TestTraceStealEntriesMatchLoopEntries checks end-to-end that, across
// many traced hybrid loops under real contention, the trace's StealEntry
// count equals the scheduler's LoopEntries counter exactly — the two
// views of "a worker entered a loop via the steal protocol" must agree.
func TestTraceStealEntriesMatchLoopEntries(t *testing.T) {
	pool := sched.NewPool(4, 42)
	defer pool.Close()
	pool.ResetStats()
	tr := trace.New(1 << 20)

	loops := 40
	if testing.Short() {
		loops = 10
	}
	var sink atomic.Int64
	for i := 0; i < loops; i++ {
		For(pool, 0, 1<<13, func(lo, hi int) {
			s := 0
			for j := lo; j < hi; j++ {
				s += j
			}
			sink.Add(int64(s))
		}, Options{Strategy: Hybrid, Chunk: 32, Trace: tr})
	}

	got := countKind(tr, trace.StealEntry)
	want := int(pool.Stats().LoopEntries)
	if got != want {
		t.Fatalf("trace has %d StealEntry events, Stats.LoopEntries = %d — views disagree", got, want)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; enlarge the log for this test", tr.Dropped())
	}
}
