// RangeSlot is the atomically splittable range descriptor behind the lazy
// loop-splitting scheme: instead of eagerly pushing a binary tree of
// lg(n/chunk) range splits into the deque, the worker executing a loop
// range publishes its remaining [lo, hi) interval in one uint64 word and
// consumes it one chunk at a time from the front, while a thief may CAS
// off the upper half from the back (steal-half). Both ends shrink under
// CAS on the same word, so a chunk take and a half steal can never hand
// out overlapping iterations, and an interval is never lost: every CAS
// either transfers a sub-interval to exactly one party or fails and is
// retried against the freshly observed remainder.
//
// Bounds are packed as two int32 halves (lo in the low word, hi in the
// high word); the canonical empty state is the packed value 0. Publish
// rejects bounds outside int32 — callers fall back to the eager
// SpawnRange lowering, mirroring SpawnRange's own int32-overflow
// fallback — and also rejects publishing over a non-empty slot, which is
// how re-entrant nested entries (a worker helping inside a Wait while its
// own slot still holds a suspended range) are detected and routed to the
// eager path.

package deque

import "sync/atomic"

// RangeSlot holds one published iteration range [lo, hi), shrinkable from
// the front by its owner and from the back by thieves. The zero value is
// an empty slot, ready for use.
//
// RangeSlots live in per-worker arrays (rangeSet.slots, indexed by
// worker ID) where the owner CASes its own slot once per chunk while
// thieves CAS their victims', so each slot is padded to a full cache
// line: eight unpadded 8-byte slots would share one line and every
// TakeFront would invalidate seven other workers' hot word — exactly
// the false sharing the paper's static partitioning is meant to avoid.
//
//sched:cacheline
type RangeSlot struct {
	// v is the packed [lo,hi) word. Every occupied value is "published";
	// the canonical empty word 0 is the only sentinel, so the protocol
	// has one dynamic state and one constant one. Shrinks from either
	// end (TakeFront, StealBack) are published→published CASes; the
	// final take's published→empty CAS and the Reset/Abandon poison
	// writes are the only ways back to empty.
	//
	//sched:protocol rangeslot
	//sched:state empty = 0
	//sched:state published = dyn
	//sched:trans empty -> published
	//sched:trans published -> published
	//sched:trans published -> empty
	//sched:trans any -> empty
	v atomic.Uint64
	_ [56]byte
}

// packRange packs lo and hi into one word, or ok == false if either bound
// needs more than 32 bits. An empty range (hi <= lo) must not be packed;
// the empty state is represented by the zero word.
func packSlotRange(lo, hi int) (uint64, bool) {
	if int(int32(lo)) != lo || int(int32(hi)) != hi {
		return 0, false
	}
	return uint64(uint32(int32(lo))) | uint64(uint32(int32(hi)))<<32, true
}

func unpackSlotRange(w uint64) (lo, hi int) {
	return int(int32(uint32(w))), int(int32(uint32(w >> 32)))
}

// Publish installs [lo, hi) as the slot's content. It fails (without
// storing anything) if either bound exceeds int32, or if the slot is
// already occupied — the caller must then fall back to eager splitting.
// Owner only.
//
//sched:noalloc
func (s *RangeSlot) Publish(lo, hi int) bool {
	if hi <= lo {
		return false
	}
	w, ok := packSlotRange(lo, hi)
	if !ok || w == 0 {
		return false
	}
	return s.v.CompareAndSwap(0, w)
}

// TakeFront removes and returns up to n iterations [lo, lo+n) from the
// front of the published range, or ok == false if the slot is empty.
// Owner only (thieves must use StealHalf); the CAS loop is still required
// because thieves concurrently shrink the back. A lazy loop's owner takes
// its windows with TakeGuided instead.
//
//sched:noalloc
func (s *RangeSlot) TakeFront(n int) (lo, hi int, ok bool) {
	if n < 1 {
		n = 1
	}
	return s.take(n, 0)
}

// TakeGuided removes and returns the owner's next window from the front:
// min(limit, ⌈r/2⌉ rounded up to a whole chunk) iterations, where r is
// the remainder the take's own CAS observes, or ok == false if the slot
// is empty. A window is never less than one chunk, so with limit a
// multiple of chunk (the owner passes stride·chunk) every take but the
// last is a whole number of chunks; and the slot keeps more than
// ⌊r/2⌋ − chunk iterations stealable after each take. Windows therefore
// shrink geometrically as the range runs out — guided self-scheduling
// applied to the owner's privatized share — and the owner still empties
// the slot only with its final take. Owner only.
//
//sched:noalloc
func (s *RangeSlot) TakeGuided(chunk, limit int) (lo, hi int, ok bool) {
	if chunk < 1 {
		chunk = 1
	}
	if limit < chunk {
		limit = chunk
	}
	return s.take(limit, chunk)
}

// take is the owner's front CAS loop shared by TakeFront and TakeGuided:
// it removes up to n iterations and, when chunk > 0, at most half the
// observed remainder rounded up to a multiple of chunk.
//
//sched:noalloc
func (s *RangeSlot) take(n, chunk int) (lo, hi int, ok bool) {
	for {
		w := s.v.Load()
		if w == 0 {
			return 0, 0, false
		}
		l, h := unpackSlotRange(w)
		k := n
		if chunk > 0 {
			if half := ((h-l+1)/2 + chunk - 1) / chunk * chunk; half < k {
				k = half
			}
		}
		take := l + k
		if take >= h {
			// Final chunk: the slot transitions to the canonical empty word.
			if s.v.CompareAndSwap(w, 0) {
				return l, h, true
			}
			continue
		}
		nw, _ := packSlotRange(take, h) // take < h <= int32 max: always packs
		if s.v.CompareAndSwap(w, nw) {
			return l, take, true
		}
	}
}

// StealHalf removes and returns the upper half [mid, hi) of the published
// range, or ok == false if fewer than min+1 iterations remain (the owner
// always keeps at least one iteration, so only the owner ever empties the
// slot). Callable from any goroutine. A single successful CAS transfers
// the half; there is no per-split deque traffic.
//
//sched:noalloc
func (s *RangeSlot) StealHalf(min int) (lo, hi int, ok bool) {
	return s.StealBack(min, 1, 2)
}

// StealBack removes and returns the upper num/den fraction [mid, hi) of
// the published range, or ok == false if fewer than min+1 iterations
// remain. StealHalf is StealBack(min, 1, 2); a cross-socket thief takes a
// larger fraction (default ¾) so the remote-line cost of reaching the
// victim's data is amortized over more iterations per transfer. Requires
// 0 < num < den and min >= 1 (callers pass the chunk size): the thief's
// share rounds down, so take < h-l and l < mid < h always hold — the
// owner keeps at least one iteration, preserving the invariant that only
// the owner ever empties the slot. Callable from any goroutine.
//
//sched:noalloc
func (s *RangeSlot) StealBack(min, num, den int) (lo, hi int, ok bool) {
	for {
		w := s.v.Load()
		if w == 0 {
			return 0, 0, false
		}
		l, h := unpackSlotRange(w)
		if h-l <= min {
			return 0, 0, false
		}
		// Thief takes ⌊(h-l)·num/den⌋ from the back, at least one
		// iteration; bounds fit int32 so the product fits int64-safe int.
		take := (h - l) * num / den
		if take < 1 {
			take = 1
		}
		mid := h - take
		nw, _ := packSlotRange(l, mid) // l < mid < h: always packs
		if s.v.CompareAndSwap(w, nw) {
			return mid, h, true
		}
	}
}

// Remaining returns the number of unconsumed iterations at some recent
// moment. Cheap (one load); used by owners to decide whether surplus
// remains worth advertising and by thieves to skip empty slots.
//
//sched:noalloc
func (s *RangeSlot) Remaining() int {
	w := s.v.Load()
	if w == 0 {
		return 0
	}
	l, h := unpackSlotRange(w)
	return h - l
}

// Reset forces the slot empty, abandoning whatever range it held. Owner
// only; used on the panic-unwind path so a dying loop never advertises
// stealable work. A thief racing with Reset either completed its CAS
// first (and owns its half) or fails it (the word changed) — no interval
// is ever handed out twice.
//
//sched:noalloc
func (s *RangeSlot) Reset() { s.v.Store(0) }

// Abandon atomically empties the slot and returns the range it held, or
// ok == false if it was already empty. Owner only. The cancellation path
// uses it to poison a published descriptor: after the swap a thief's
// StealHalf observes the canonical empty word and returns ok == false,
// while a StealHalf whose CAS completed before the swap owns its half
// exactly as usual — the returned range then reflects the post-steal
// remainder, so no iteration is reported abandoned and stolen at once.
//
//sched:noalloc
func (s *RangeSlot) Abandon() (lo, hi int, ok bool) {
	w := s.v.Swap(0)
	if w == 0 {
		return 0, 0, false
	}
	l, h := unpackSlotRange(w)
	return l, h, true
}
