package loop

// The per-chunk tax: every scheduling chunk of the chunk-at-a-time
// strategies used to pay a cancellation poll, a demand-census probe, and
// an injection-queue probe — four to six atomic loads that dominate the
// loop once chunks shrink toward the paper's fine-grained regime. The
// pacer amortizes them: the checks run once every k-th chunk, with k
// derived from the measured body cost so the *time* between polls stays
// bounded no matter how small the chunks are.
//
//	k = clamp(pollBudgetNanos / chunkNanos, 1, maxPollStride)
//
// chunkNanos comes from the tuner's EWMA chunk-cost estimate when the
// loop went through Auto (Decision.ChunkCostNanos); fixed-strategy
// entries time their first chunk with two clock reads and derive k
// online. Either way the responsiveness bound is the same: a worker
// notices a tripped canceller, a hungry thief, or a pending submission
// within at most k chunks ≈ pollBudgetNanos of body work (plus the chunk
// in flight), and never more than maxPollStride chunks even when the
// cost estimate is wrong.
//
// A steal-half owner's window is min(k·chunk, ⌈r/2⌉ rounded up to a whole
// chunk), at least one chunk, for the remainder r its take observes
// (deque.RangeSlot.TakeGuided). The stride caps a window while the range
// is long; half the remainder caps it in the tail. Windows only shrink,
// so the cancellation bound above (one window plus the chunk in flight)
// still holds, and a range's last iterations stay stealable even when k
// was measured on a light first chunk.
//
// Which loops stride: the steal-half owners (rangeSet.runOwned — serving
// DynamicStealing and the hybrid partitions) and the shared-counter team
// (frame.share). Guided keeps its per-grab polls: its grabs shrink
// geometrically from remaining/2P, so the polls are already amortized
// over large chunks and the tail's small grabs are exactly where
// responsiveness matters. The hybrid claim walk polls per *claim*, not
// per chunk — there are at most R = 2^⌈log2 P⌉+1 claims per loop — so it
// keeps its per-claim poll too.

const (
	// pollBudgetNanos is the target interval between poll windows: about
	// 100µs of body work, the documented cancellation-latency budget.
	pollBudgetNanos = 100_000
	// maxPollStride caps the stride so a bad (too-cheap) first sample or
	// a stale tuner estimate cannot defer polls indefinitely.
	maxPollStride = 64
)

// pollStrideFor derives the poll stride from an estimated per-chunk cost
// in nanoseconds, clamped to [1, maxPollStride]. Callers pass a positive
// estimate; zero or negative (no estimate) maps to stride 1.
func pollStrideFor(chunkNanos int64) int32 {
	if chunkNanos <= 0 {
		return 1
	}
	k := pollBudgetNanos / chunkNanos
	if k < 1 {
		return 1
	}
	if k > maxPollStride {
		return maxPollStride
	}
	return int32(k)
}
