package nas

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hybridloop"
)

func equalRanks(t *testing.T, what string, got, want ISResult) {
	t.Helper()
	if len(got.Ranks) != len(want.Ranks) || len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: %d ranks of %d keys, want %d of %d", what, len(got.Ranks), len(got.Keys), len(want.Ranks), len(want.Keys))
	}
	for i := range want.Ranks {
		if got.Keys[i] != want.Keys[i] || got.Ranks[i] != want.Ranks[i] {
			t.Fatalf("%s: key[%d]=%d rank %d, want key %d rank %d", what, i, got.Keys[i], got.Ranks[i], want.Keys[i], want.Ranks[i])
		}
	}
}

// TestISSegmentShapes holds the parallel round to the sequential ranking
// where the segment cut changes shape: fewer blocks than segments, one key
// either side of a block and of 8*workers blocks, a single bucket, more
// buckets than keys, and a last prefix range that is not full.
func TestISSegmentShapes(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := hybridloop.NewPool(workers, hybridloop.WithSeed(7))
		full := 8 * workers * reduceBlock // the smallest N cut into 8*workers segments
		for _, n := range []int{1, 1023, 1024, 1025, full - 1, full + 1, 40000} {
			for _, maxKey := range []int{1, 2, 512, n + 1500} {
				is := IS{N: n, MaxKey: maxKey, Iterations: 2}
				want := is.Sequential()
				if err := VerifyRanks(want.Keys, want.Ranks); err != nil {
					t.Fatalf("N=%d MaxKey=%d: sequential: %v", n, maxKey, err)
				}
				for _, s := range testStrategies {
					what := fmt.Sprintf("W=%d N=%d MaxKey=%d %v", workers, n, maxKey, s)
					got := is.Parallel(p, hybridloop.WithStrategy(s))
					equalRanks(t, what, got, want)
					if err := VerifyRanks(got.Keys, got.Ranks); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
			}
		}
		p.Close()
	}
}

// TestISPerturbKeepsKeysInRange is the regression test for rounds beyond
// MaxKey (and beyond N): the complement key went negative and the ranking
// indexed its histogram at -1.
func TestISPerturbKeepsKeysInRange(t *testing.T) {
	p := testPool(t)
	for _, is := range []IS{{N: 100, MaxKey: 8}, {N: 4, MaxKey: 3}} {
		want := is.Sequential()
		for _, k := range want.Keys {
			if k < 0 || int(k) >= is.MaxKey {
				t.Fatalf("%+v: key %d outside [0, %d)", is, k, is.MaxKey)
			}
		}
		if err := VerifyRanks(want.Keys, want.Ranks); err != nil {
			t.Fatalf("%+v: %v", is, err)
		}
		equalRanks(t, fmt.Sprintf("%+v", is), is.Parallel(p), want)
	}
	// Rounds up to MaxKey — every golden and benchmark instance — keep the
	// values they had.
	is := IS{N: 64, MaxKey: 8}
	for round := 0; round <= is.MaxKey; round++ {
		keys := make([]int32, is.N)
		is.perturb(keys, round)
		if a, b := keys[round], keys[(round+is.N/2)%is.N]; int(a) != round%is.MaxKey || int(b) != (is.MaxKey-round)%is.MaxKey {
			t.Fatalf("round %d: perturbed to %d and %d", round, a, b)
		}
	}
}

func TestISDefaultsRejectWhatInt32CannotHold(t *testing.T) {
	tooMany := int64(math.MaxInt32) + 1
	for _, is := range []IS{{N: 0}, {N: int(tooMany)}, {N: 10, MaxKey: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v accepted", is)
				}
			}()
			is.defaults()
		}()
	}
}

// TestNPBISClassW runs the class whose histograms (64 Ki buckets) rival
// its key array, where the bucket prefix has 64 ranges to share out.
func TestNPBISClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W ranks 2^20 keys ten times, twice")
	}
	want := NPBIS(NPBISClasses['W'], nil)
	if err := VerifyRanks(want.Keys, want.Ranks); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	equalRanks(t, "class W", NPBIS(NPBISClasses['W'], testPool(t)), want)
}

// TestISParallelAllocBudget pins the memory bound: one call allocates its
// keys, one rank buffer and 8*workers histogram rows (plus the bucket
// starts), not a histogram per 1024-key block or a rank buffer per round.
func TestISParallelAllocBudget(t *testing.T) {
	const workers = 2
	p := hybridloop.NewPool(workers, hybridloop.WithSeed(3))
	defer p.Close()
	is := IS{N: 1 << 18, MaxKey: 1 << 11, Iterations: 4}
	is.Parallel(p) // the pool's own first-use allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	is.Parallel(p)
	runtime.ReadMemStats(&after)
	const slack = 64 << 10 // loop descriptors, the RNG, size-class rounding
	budget := uint64(4*is.N + 4*is.N + 4*(8*workers+1)*is.MaxKey + slack)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("IS.Parallel allocated %d B, budget %d B", got, budget)
	}
}
