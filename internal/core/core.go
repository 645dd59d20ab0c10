// Package core implements the heart of the paper's contribution: the
// semi-deterministic claiming heuristic for hybrid parallel loops
// (Algorithms 1–3 of "A Hybrid Scheduling Scheme for Parallel Loops").
//
// A loop of N iterations is divided into R = 2^k partitions, each earmarked
// for one worker. Worker w visits partitions in the order given by the
// worker-specific bijection r = i XOR w for index i = 0, 1, 2, ...; a claim
// on partition r succeeds iff an atomic fetch-and-or on the partition's flag
// observes it unclaimed. On a failed claim at index i > 0 the worker skips
// ahead by the least-significant set bit of i (i += i & -i), which — per
// Lemma 2 — moves to the next index group not already covered by whoever
// beat it to the contested partition. A failed claim at i = 0 means the
// worker's own designated partition is taken and it should fall back to
// ordinary randomized work stealing immediately.
//
// The package is deliberately runtime-agnostic: both the goroutine-based
// scheduler (internal/sched) and the discrete-event simulator (internal/sim)
// drive the same PartitionSet, so the algorithm is written — and proven by
// tests — exactly once.
package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// NextPow2 returns the smallest power of two >= n, and 1 for n <= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Range is a half-open interval [Begin, End) of loop iterations.
type Range struct {
	Begin, End int
}

// Len returns the number of iterations in the range.
func (r Range) Len() int { return r.End - r.Begin }

// Empty reports whether the range contains no iterations.
func (r Range) Empty() bool { return r.End <= r.Begin }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Begin, r.End) }

// Split divides the range evenly into n consecutive sub-ranges. The first
// (Len mod n) sub-ranges receive one extra iteration, matching static
// partitioning as implemented by OpenMP and the paper's InitHybridLoop.
func (r Range) Split(n int) []Range {
	if n <= 0 {
		panic("core: Split with n <= 0")
	}
	out := make([]Range, n)
	r.splitInto(out)
	return out
}

// splitInto is Split into caller-owned storage, len(out) sub-ranges.
func (r Range) splitInto(out []Range) {
	n := len(out)
	total := r.Len()
	if total < 0 {
		total = 0
	}
	base, extra := total/n, total%n
	begin := r.Begin
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{begin, begin + size}
		begin += size
	}
}

// ClaimFlag is one partition's claim word, padded to a full cache line:
// the claim phase has every worker Swap-ing flags of distinct partitions
// concurrently, and the steal protocol's PeekClaimed re-reads them on
// every idle probe, so packing sixteen 4-byte flags into one line would
// make each claim CAS invalidate fifteen unrelated probes. R is at most
// 2·P, so the padding costs under 8 KiB even on a 64-worker pool.
//
//sched:cacheline
type ClaimFlag struct {
	// v is the claim latch of Algorithm 1: Swap(1) owns the transition —
	// exactly one worker observes the 0 return and executes the
	// partition. An unconditional write, so the claim is any→claimed;
	// there is no way back to unclaimed within one dynamic execution.
	// Only Reset, which starts the next execution of a recycled set once
	// no worker can reach it, stores unclaimed.
	//
	//sched:protocol claim
	//sched:state unclaimed = 0
	//sched:state claimed = 1
	//sched:trans any -> claimed
	//sched:trans any -> unclaimed
	v atomic.Uint32 // 0 = unclaimed, 1 = claimed
	_ [60]byte
}

// PartitionSet is the partition data structure A of Algorithm 1: the
// iteration space divided into R = 2^k partitions with one atomic claim
// flag per partition. A PartitionSet serves one dynamic execution of a
// hybrid loop at a time and is shared by every worker that participates;
// Reset readies it for the next.
type PartitionSet struct {
	iters   Range
	parts   []Range      // partition r covers parts[r]
	flags   []ClaimFlag  // one padded claim word per partition
	logR    int          // lg R
	failed  atomic.Int64 // total failed claims (instrumentation)
	claimed atomic.Int64 // successful claims so far
}

// NewPartitionSet divides [begin, end) into R partitions, where R is the
// smallest power of two >= workers (Section III: if P is not a power of 2,
// R is the next power of 2 and the extra partitions are earmarked for no
// one but still claimed by the sequence). workers must be >= 1.
func NewPartitionSet(begin, end, workers int) *PartitionSet {
	if workers < 1 {
		panic("core: NewPartitionSet with workers < 1")
	}
	return NewPartitionSetR(begin, end, NextPow2(workers))
}

// NewPartitionSetR divides [begin, end) into exactly R partitions.
// R must be a power of two >= 1.
func NewPartitionSetR(begin, end, r int) *PartitionSet {
	if r < 1 || r&(r-1) != 0 {
		panic(fmt.Sprintf("core: R = %d is not a power of two", r))
	}
	ps := &PartitionSet{
		parts: make([]Range, r),
		flags: make([]ClaimFlag, r),
		logR:  bits.TrailingZeros(uint(r)),
	}
	ps.Reset(begin, end)
	return ps
}

// Reset re-divides [begin, end) evenly into the set's R partitions and
// clears every claim, in place: a recycled set starts its next dynamic
// execution without allocating. The caller must ensure no worker still
// reaches the set from its previous execution.
//
//sched:noalloc
func (ps *PartitionSet) Reset(begin, end int) {
	ps.iters = Range{begin, end}
	ps.iters.splitInto(ps.parts)
	for i := range ps.flags {
		ps.flags[i].v.Store(0)
	}
	ps.failed.Store(0)
	ps.claimed.Store(0)
}

// R returns the number of partitions (a power of two).
func (ps *PartitionSet) R() int { return len(ps.parts) }

// LogR returns lg R.
func (ps *PartitionSet) LogR() int { return ps.logR }

// Iterations returns the whole iteration range of the loop.
func (ps *PartitionSet) Iterations() Range { return ps.iters }

// Partition returns the iteration range of partition r.
func (ps *PartitionSet) Partition(r int) Range { return ps.parts[r] }

// Claimed reports whether partition r has been claimed.
func (ps *PartitionSet) Claimed(r int) bool { return ps.flags[r].v.Load() != 0 }

// AllClaimed reports whether every partition has been claimed.
func (ps *PartitionSet) AllClaimed() bool {
	for i := range ps.flags {
		if ps.flags[i].v.Load() == 0 {
			return false
		}
	}
	return true
}

// FailedClaims returns the total number of unsuccessful claims recorded
// across all workers — the quantity bounded by Lemma 4 (at most lg R per
// worker entry before it reverts to work stealing).
func (ps *PartitionSet) FailedClaims() int64 { return ps.failed.Load() }

// Claim is Algorithm 2: worker w attempts to claim the partition mapped to
// index i, namely r = i XOR w. It returns the partition number and whether
// the claim succeeded. The fetch-and-or of the paper is realized as an
// atomic swap, which has the identical owns-the-transition property.
//
//sched:noalloc
func (ps *PartitionSet) Claim(i, w int) (r int, ok bool) {
	r = (i ^ w) & (len(ps.parts) - 1)
	if ps.flags[r].v.Swap(1) != 0 {
		ps.failed.Add(1)
		return r, false
	}
	ps.claimed.Add(1)
	return r, true
}

// Unclaimed returns how many partitions remain unclaimed. A loop with
// Unclaimed() == 0 is dead for the steal protocol: no thief can enter it.
func (ps *PartitionSet) Unclaimed() int {
	return len(ps.parts) - int(ps.claimed.Load())
}

// ClaimPartition attempts to claim partition r directly (used by the steal
// protocol, which probes a thief's designated partition r = w XOR 0 = w).
//
//sched:noalloc
func (ps *PartitionSet) ClaimPartition(r int) bool {
	if ps.flags[r].v.Swap(1) != 0 {
		ps.failed.Add(1)
		return false
	}
	ps.claimed.Add(1)
	return true
}

// PeekClaimed reports, without side effects, whether partition w XOR 0 = w
// (worker w's designated partition) is already claimed. The steal protocol
// of Section III uses this read to decide whether a thief enters the loop
// with its own worker ID or performs an ordinary random steal.
//
//sched:noalloc
func (ps *PartitionSet) PeekClaimed(w int) bool {
	return ps.flags[w&(len(ps.parts)-1)].v.Load() != 0
}

// NextIndex returns the index visited after i in worker order when the
// claim at i failed: i plus its least-significant set bit (line 20 of
// Algorithm 3). It must not be called with i = 0 — a failed claim at the
// designated partition exits the heuristic instead.
func NextIndex(i int) int {
	if i <= 0 {
		panic("core: NextIndex on the designated index")
	}
	return i + (i & -i)
}

// Claimer walks the claim sequence of Algorithm 3 for one worker. It is an
// explicit iterator rather than a callback loop so that the scheduler can
// interleave claims with spawning partition work, and the simulator can
// charge simulated time to each step.
type Claimer struct {
	ps        *PartitionSet
	w         int
	i         int
	failed    int
	streak    int // consecutive failures since the last success
	maxStreak int // worst streak seen (bounded by lg R per Lemma 4)
	done      bool
}

// NewClaimer returns a Claimer for worker w over ps, positioned before the
// designated index i = 0.
func NewClaimer(ps *PartitionSet, w int) *Claimer {
	return &Claimer{ps: ps, w: w & (ps.R() - 1)}
}

// Worker returns the worker ID (reduced mod R) this Claimer claims for.
func (c *Claimer) Worker() int { return c.w }

// Failed returns how many claims by this Claimer were unsuccessful.
func (c *Claimer) Failed() int { return c.failed }

// MaxFailStreak returns the largest number of consecutive unsuccessful
// claims between successes — the quantity Lemma 4 bounds by lg R.
func (c *Claimer) MaxFailStreak() int { return c.maxStreak }

// Done reports whether the claim sequence is exhausted.
func (c *Claimer) Done() bool { return c.done || c.i >= c.ps.R() }

// Next advances the claim sequence until a claim succeeds or the sequence
// is exhausted, returning the claimed partition and true, or (0, false)
// when the worker should revert to ordinary work stealing. Per Lemma 4 at
// most lg R failed claims occur before a success or exhaustion.
func (c *Claimer) Next() (r int, ok bool) {
	if c.done {
		return 0, false
	}
	for c.i < c.ps.R() {
		r, ok = c.ps.Claim(c.i, c.w)
		if ok {
			c.i++
			c.streak = 0
			return r, true
		}
		c.failed++
		c.streak++
		if c.streak > c.maxStreak {
			c.maxStreak = c.streak
		}
		if c.i == 0 {
			// Designated partition taken: exit immediately (line 14 of
			// Algorithm 3) and let the caller revert to work stealing.
			c.done = true
			return 0, false
		}
		c.i = NextIndex(c.i)
	}
	c.done = true
	return 0, false
}

// ClaimOrder returns, for worker w and R partitions, the full partition
// visit order assuming every claim succeeds: w XOR 0, w XOR 1, ..., i.e. the
// deterministic sequence the worker walks when running alone. Used by tests
// and by the affinity analysis.
func ClaimOrder(w, r int) []int {
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = (i ^ w) & (r - 1)
	}
	return out
}

// IndexGroup returns I(x, n) = {x*2^n, ..., x*2^n + 2^n - 1}, the level-n
// index group of the Lemma 2 proof.
func IndexGroup(x, n int) []int {
	out := make([]int, 1<<n)
	for a := range out {
		out[a] = x<<n + a
	}
	return out
}

// PartitionGroup returns G(w, x, n) = w XOR I(x, n), the level-n partition
// group for worker w.
func PartitionGroup(w, x, n int) []int {
	out := IndexGroup(x, n)
	for a := range out {
		out[a] ^= w
	}
	return out
}
