package sched

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// freeList is a free list of recycled frames: a fixed row of slots, each
// empty or holding one frame, in front of an overflow sync.Pool. A taker
// swaps a frame out of the first full slot and a giver compares-and-swaps
// one into the first empty slot, so one caller recycles its frame through
// slot 0 with a Swap/CAS pair and concurrent callers spread over the next
// slots. Unlike a sync.Pool, a frame leaves the slots only when taken, so
// the frames the slots hold survive garbage collection. A giver that finds
// every slot full puts its frame in the overflow, which a taker that finds
// them empty tries next: more callers at once than the slots were sized
// for recycle their frames until the next collection empties the overflow,
// and what the list retains past a collection stays bounded.
type freeList[T any] struct {
	slots []atomic.Pointer[T]
	// used is one past the last slot ever filled; takers scan no further,
	// so a row sized for a large in-flight bound costs a taker only the
	// part of it the pool has used.
	used     atomic.Int64
	overflow sync.Pool
}

// take empties the first full slot at or after i and returns its frame
// and index, or nil and len(slots) when every slot from i on is empty.
//
//sched:noalloc
func (l *freeList[T]) take(i int) (*T, int) {
	for n := int(l.used.Load()); i < n; i++ {
		if l.slots[i].Load() != nil {
			if f := l.slots[i].Swap(nil); f != nil {
				return f, i
			}
		}
	}
	return nil, len(l.slots)
}

// get takes a frame from the slots, or else from the overflow; nil when
// the list has none.
//
//sched:noalloc
func (l *freeList[T]) get() *T {
	if f, _ := l.take(0); f != nil {
		return f
	}
	f, _ := l.overflow.Get().(*T)
	return f
}

// put stores f in the first empty slot, or in the overflow when every slot
// is full.
//
//sched:noalloc
func (l *freeList[T]) put(f *T) {
	for i := range l.slots {
		if l.slots[i].Load() == nil && l.slots[i].CompareAndSwap(nil, f) {
			for u, n := l.used.Load(), int64(i+1); u < n && !l.used.CompareAndSwap(u, n); u = l.used.Load() {
			}
			return
		}
	}
	l.overflow.Put(f)
}

// ReserveFrames sizes the pool's free lists of Run frames and loop frames
// for n roots in flight at once: an admission gate's in-flight bound, or
// twice the worker count when that is larger, which is also the size a
// new pool starts with, as a worker may serve a submitted root while the
// loop it interrupted stays live. Each list has two slots per root in
// flight, room for one frame that waits for a probe to leave it (see
// TakeFrame) beside every frame in use. Call it before the first Run.
func (p *Pool) ReserveFrames(n int) {
	n = 2 * max(n, 2*len(p.workers))
	p.rootCalls.slots = make([]atomic.Pointer[rootCall], n)
	p.frames.slots = make([]atomic.Pointer[byte], n)
}

// TakeFrame and PutFrame are the pool's free list of the loop layer's
// per-loop scratch frames, the counterpart of the Run frames one layer
// down. The list is untyped so that sched need not know the frame; every
// call on a pool must use the same T.
//
// TakeFrame removes and returns the first frame in the list that
// reusable accepts, or nil when there is none. A frame reusable rejects,
// one a probe may still hold, stays in the list and waits there for a
// later take to find it free. It goes back where the next frame came
// from, behind it, so that later takes meet the frames that are free
// before the one that was not, and ask about that one only when they need
// it. The overflow is asked for one frame, after the slots.
//
//sched:noalloc
func TakeFrame[T any](p *Pool, reusable func(*Pool, *T) bool) *T {
	l := &p.frames
	var held *byte // the frame reusable rejected last, not yet back in the list
	for i := 0; ; i++ {
		b, at := l.take(i)
		if held != nil {
			if at == len(l.slots) || !l.slots[at].CompareAndSwap(nil, held) {
				l.put(held)
			}
			held = nil
		}
		if b == nil {
			if b, _ = l.overflow.Get().(*byte); b == nil {
				return nil
			}
			if f := (*T)(unsafe.Pointer(b)); reusable(p, f) {
				return f
			}
			l.put(b)
			return nil
		}
		if f := (*T)(unsafe.Pointer(b)); reusable(p, f) {
			return f
		}
		held, i = b, at
	}
}

// PutFrame stores f in the free list.
//
//sched:noalloc
func PutFrame[T any](p *Pool, f *T) {
	p.frames.put((*byte)(unsafe.Pointer(f)))
}
