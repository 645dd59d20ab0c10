package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hybridloop/internal/rng"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16,
		31: 32, 32: 32, 33: 64, 1000: 1024, 1 << 20: 1 << 20,
	}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRangeSplitCoversExactly(t *testing.T) {
	for _, tc := range []struct{ begin, end, n int }{
		{0, 0, 1}, {0, 1, 1}, {0, 10, 3}, {0, 10, 16}, {5, 29, 4},
		{0, 1024, 32}, {-7, 13, 5}, {0, 100, 7},
	} {
		parts := (Range{tc.begin, tc.end}).Split(tc.n)
		if len(parts) != tc.n {
			t.Fatalf("Split(%d) returned %d parts", tc.n, len(parts))
		}
		pos := tc.begin
		for i, p := range parts {
			if p.Begin != pos {
				t.Fatalf("range %v part %d begins at %d, want %d", tc, i, p.Begin, pos)
			}
			if p.Len() < 0 {
				t.Fatalf("range %v part %d has negative length", tc, i)
			}
			pos = p.End
		}
		if pos != tc.end {
			t.Fatalf("range %v parts end at %d, want %d", tc, pos, tc.end)
		}
	}
}

func TestRangeSplitBalanced(t *testing.T) {
	// Partition sizes may differ by at most one iteration.
	parts := (Range{0, 103}).Split(8)
	min, max := parts[0].Len(), parts[0].Len()
	for _, p := range parts {
		if l := p.Len(); l < min {
			min = l
		} else if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Errorf("partition sizes range from %d to %d; want spread <= 1", min, max)
	}
}

func TestClaimOrderIsPermutation(t *testing.T) {
	for r := 1; r <= 64; r *= 2 {
		for w := 0; w < r; w++ {
			seen := make([]bool, r)
			for _, p := range ClaimOrder(w, r) {
				if p < 0 || p >= r || seen[p] {
					t.Fatalf("R=%d w=%d: claim order not a permutation: %v", r, w, ClaimOrder(w, r))
				}
				seen[p] = true
			}
		}
	}
}

func TestClaimOrderStartsAtDesignated(t *testing.T) {
	for r := 1; r <= 128; r *= 2 {
		for w := 0; w < r; w++ {
			if got := ClaimOrder(w, r)[0]; got != w {
				t.Fatalf("R=%d w=%d: first partition %d, want designated %d", r, w, got, w)
			}
		}
	}
}

// TestSoloWorkerClaimsAll verifies Theorem 3 in the degenerate case: a
// single worker running the heuristic alone claims every partition exactly
// once, in its deterministic XOR order, with zero failed claims.
func TestSoloWorkerClaimsAll(t *testing.T) {
	for r := 1; r <= 256; r *= 2 {
		for w := 0; w < r; w++ {
			ps := NewPartitionSetR(0, r*10, r)
			c := NewClaimer(ps, w)
			var got []int
			for {
				p, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, p)
			}
			want := ClaimOrder(w, r)
			if len(got) != len(want) {
				t.Fatalf("R=%d w=%d: claimed %d partitions, want %d", r, w, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("R=%d w=%d: order %v, want %v", r, w, got, want)
				}
			}
			if c.Failed() != 0 {
				t.Fatalf("R=%d w=%d: %d failed claims running solo", r, w, c.Failed())
			}
			if !ps.AllClaimed() {
				t.Fatalf("R=%d w=%d: not all partitions claimed", r, w)
			}
		}
	}
}

// runInterleaved drives one Claimer per participating worker, interleaving
// their Next calls in an arbitrary schedule chosen by pick, and returns the
// per-partition claim counts plus per-worker failed-claim counts.
func runInterleaved(ps *PartitionSet, workers []int, pick func(active []int) int) (claims []int, maxStreaks map[int]int) {
	claims = make([]int, ps.R())
	maxStreaks = make(map[int]int)
	claimers := make(map[int]*Claimer)
	active := append([]int(nil), workers...)
	for _, w := range workers {
		claimers[w] = NewClaimer(ps, w)
	}
	for len(active) > 0 {
		k := pick(active)
		w := active[k]
		c := claimers[w]
		p, ok := c.Next()
		if ok {
			claims[p]++
		}
		if c.Done() {
			maxStreaks[w] = c.MaxFailStreak()
			active = append(active[:k], active[k+1:]...)
		}
	}
	return claims, maxStreaks
}

// TestTheorem3Exhaustive checks, for every R up to 16, every subset size of
// participating workers, and many random interleavings, that every
// partition is claimed exactly once (Theorem 3) and that no worker fails
// more than lg R claims per entry (Lemma 4).
func TestTheorem3Exhaustive(t *testing.T) {
	gen := rng.NewXoshiro256(42)
	for _, r := range []int{1, 2, 4, 8, 16} {
		for nw := 1; nw <= r; nw++ {
			for trial := 0; trial < 50; trial++ {
				ps := NewPartitionSetR(0, 1000, r)
				workers := gen.PermPrefix(r, nw)
				claims, streaks := runInterleaved(ps, workers, func(active []int) int {
					return gen.Intn(len(active))
				})
				for p, n := range claims {
					if n != 1 {
						t.Fatalf("R=%d workers=%v: partition %d claimed %d times", r, workers, p, n)
					}
				}
				lg := bits.TrailingZeros(uint(r))
				for w, s := range streaks {
					if s > lg {
						t.Fatalf("R=%d worker %d: fail streak %d > lg R = %d", r, w, s, lg)
					}
				}
				if !ps.AllClaimed() {
					t.Fatalf("R=%d workers=%v: partitions left unclaimed", r, workers)
				}
			}
		}
	}
}

// TestLemma2GroupIdentity verifies the structural identity used in the
// Lemma 2 proof: a level-n partition group of one worker coincides with a
// level-n partition group of any other worker (with a shifted x), i.e.
// partition groups at each level form the same fixed blocks of partitions
// regardless of worker.
func TestLemma2GroupIdentity(t *testing.T) {
	const logR = 5
	r := 1 << logR
	for n := 0; n <= logR; n++ {
		// The level-n groups of worker 0 are the canonical blocks.
		blocks := make(map[int]int) // partition -> block id under worker 0
		for x := 0; x < r>>n; x++ {
			for _, p := range PartitionGroup(0, x, n) {
				blocks[p] = x
			}
		}
		for w := 0; w < r; w++ {
			for x := 0; x < r>>n; x++ {
				g := PartitionGroup(w, x, n)
				id := blocks[g[0]]
				for _, p := range g {
					if blocks[p] != id {
						t.Fatalf("level %d: worker %d group x=%d spans worker-0 blocks: %v", n, w, x, g)
					}
				}
			}
		}
	}
}

// TestIndexGroupNesting verifies the two index-group properties stated in
// Section IV: I(x,n) = I(2x,n-1) u I(2x+1,n-1), and each I(x,n) lies in a
// single level-(n+1) group.
func TestIndexGroupNesting(t *testing.T) {
	const logR = 6
	for n := 1; n <= logR; n++ {
		for x := 0; x < 1<<(logR-n); x++ {
			want := append(IndexGroup(2*x, n-1), IndexGroup(2*x+1, n-1)...)
			got := IndexGroup(x, n)
			if len(got) != len(want) {
				t.Fatalf("I(%d,%d) has %d elements, want %d", x, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("I(%d,%d) = %v, want %v", x, n, got, want)
				}
			}
		}
	}
	for n := 0; n < logR; n++ {
		for x := 0; x < 1<<(logR-n); x++ {
			parent := x / 2
			for _, i := range IndexGroup(x, n) {
				if i>>(n+1) != parent {
					t.Fatalf("I(%d,%d) element %d outside parent group %d", x, n, i, parent)
				}
			}
		}
	}
}

func TestNextIndexSkipsByLowBit(t *testing.T) {
	cases := map[int]int{1: 2, 2: 4, 3: 4, 4: 8, 5: 6, 6: 8, 7: 8, 12: 16, 20: 24}
	for in, want := range cases {
		if got := NextIndex(in); got != want {
			t.Errorf("NextIndex(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextIndexPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextIndex(0) did not panic")
		}
	}()
	NextIndex(0)
}

// TestLemma4Bound verifies by exhaustive walk that from any index i, at
// most lg R consecutive failed claims can occur before i >= R.
func TestLemma4Bound(t *testing.T) {
	for logR := 0; logR <= 12; logR++ {
		r := 1 << logR
		for i := 1; i < r; i++ {
			steps := 0
			for j := i; j < r; j = NextIndex(j) {
				steps++
				if steps > logR {
					t.Fatalf("R=%d: more than lg R = %d failures starting at i=%d", r, logR, i)
				}
			}
		}
	}
}

// TestConcurrentClaiming runs real goroutines hammering one PartitionSet
// and checks exactly-once claiming under true concurrency (run with -race).
func TestConcurrentClaiming(t *testing.T) {
	const r = 64
	for trial := 0; trial < 20; trial++ {
		ps := NewPartitionSetR(0, 1<<20, r)
		counts := make([]atomic.Int32, r)
		var wg sync.WaitGroup
		for w := 0; w < r; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := NewClaimer(ps, w)
				for {
					p, ok := c.Next()
					if !ok {
						return
					}
					counts[p].Add(1)
				}
			}(w)
		}
		wg.Wait()
		for p := range counts {
			if n := counts[p].Load(); n != 1 {
				t.Fatalf("trial %d: partition %d executed %d times", trial, p, n)
			}
		}
		if !ps.AllClaimed() {
			t.Fatal("partitions left unclaimed after concurrent run")
		}
	}
}

// TestQuickClaimPermutation is a testing/quick property: for arbitrary
// worker ids and any power-of-two R, the XOR mapping i -> i^w is a
// permutation of the partition space (the bijectivity Claim relies on).
func TestQuickClaimPermutation(t *testing.T) {
	prop := func(wRaw uint8, logR uint8) bool {
		r := 1 << (logR % 9)
		w := int(wRaw) & (r - 1)
		seen := make([]bool, r)
		for i := 0; i < r; i++ {
			p := (i ^ w) & (r - 1)
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickInterleavedExactlyOnce is a testing/quick property over random
// schedules: any interleaving of any worker subset claims each partition
// exactly once.
func TestQuickInterleavedExactlyOnce(t *testing.T) {
	prop := func(seed uint64, logR uint8, nwRaw uint8) bool {
		r := 1 << (logR%6 + 1) // R in {2..64}
		nw := int(nwRaw)%r + 1
		gen := rng.NewXoshiro256(seed)
		ps := NewPartitionSetR(0, 4096, r)
		workers := gen.PermPrefix(r, nw)
		claims, _ := runInterleaved(ps, workers, func(active []int) int {
			return gen.Intn(len(active))
		})
		for _, n := range claims {
			if n != 1 {
				return false
			}
		}
		return ps.AllClaimed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartitionSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPartitionSetR(0, 10, 3) did not panic on non-power-of-two R")
		}
	}()
	NewPartitionSetR(0, 10, 3)
}

func TestNewPartitionSetRoundsUp(t *testing.T) {
	ps := NewPartitionSet(0, 100, 5) // P=5 -> R=8
	if ps.R() != 8 {
		t.Fatalf("R = %d, want 8", ps.R())
	}
	// The extra partitions must still be part of the iteration cover.
	total := 0
	for r := 0; r < ps.R(); r++ {
		total += ps.Partition(r).Len()
	}
	if total != 100 {
		t.Fatalf("partitions cover %d iterations, want 100", total)
	}
}

func TestPeekClaimed(t *testing.T) {
	ps := NewPartitionSetR(0, 80, 8)
	if ps.PeekClaimed(3) {
		t.Fatal("fresh partition reported claimed")
	}
	if !ps.ClaimPartition(3) {
		t.Fatal("first direct claim failed")
	}
	if !ps.PeekClaimed(3) {
		t.Fatal("claimed partition reported unclaimed")
	}
	if ps.ClaimPartition(3) {
		t.Fatal("second direct claim succeeded")
	}
	if ps.FailedClaims() != 1 {
		t.Fatalf("FailedClaims = %d, want 1", ps.FailedClaims())
	}
}

// TestResetMatchesNew: a set reset in place after a fully claimed run is
// indistinguishable from a new one over the new range — the same
// partitions, every flag unclaimed, zeroed counters — and Reset itself
// allocates nothing.
func TestResetMatchesNew(t *testing.T) {
	ps := NewPartitionSet(0, 100, 3)
	for r := 0; r < ps.R(); r++ {
		ps.ClaimPartition(r)
	}
	ps.ClaimPartition(0) // a failed claim
	ps.Reset(7, 1000)
	want := NewPartitionSet(7, 1000, 3)
	if ps.Iterations() != want.Iterations() || ps.R() != want.R() || ps.LogR() != want.LogR() {
		t.Fatalf("reset set covers %v in %d partitions, want %v in %d", ps.Iterations(), ps.R(), want.Iterations(), want.R())
	}
	for r := 0; r < ps.R(); r++ {
		if ps.Partition(r) != want.Partition(r) || ps.Claimed(r) {
			t.Fatalf("partition %d: %v claimed=%v, want %v unclaimed", r, ps.Partition(r), ps.Claimed(r), want.Partition(r))
		}
	}
	if ps.Unclaimed() != ps.R() || ps.FailedClaims() != 0 {
		t.Fatalf("counters not reset: unclaimed %d, failed %d", ps.Unclaimed(), ps.FailedClaims())
	}
	if a := testing.AllocsPerRun(100, func() { ps.Reset(0, 4096) }); a != 0 {
		t.Fatalf("Reset allocates %.0f objects, want 0", a)
	}
}
