package sched

import (
	"slices"
	"testing"

	"hybridloop/internal/rng"
)

// ringModel is the reference queue: roots in arrival order, pop takes the
// first of the heaviest.
type ringModel struct{ ids, weights []int32 }

func (m *ringModel) pop(min int32) (int32, bool) {
	if len(m.ids) == 0 || slices.Max(m.weights) < min {
		return 0, false
	}
	i := slices.Index(m.weights, slices.Max(m.weights))
	id := m.ids[i]
	m.ids, m.weights = slices.Delete(m.ids, i, i+1), slices.Delete(m.weights, i, i+1)
	return id, true
}

// checkRing compares r with m: length, top and ntop, and every slot
// outside the queued window zeroed.
func checkRing(t *testing.T, step int, r *taskRing, m *ringModel) {
	t.Helper()
	if r.len() != len(m.ids) {
		t.Fatalf("step %d: ring holds %d roots, model %d", step, r.len(), len(m.ids))
	}
	top, ntop := int32(0), 0
	for _, w := range m.weights {
		if w > top {
			top, ntop = w, 0
		}
		if w == top {
			ntop++
		}
	}
	if r.top != top || r.ntop != ntop {
		t.Fatalf("step %d: ring top %d×%d, model %d×%d", step, r.top, r.ntop, top, ntop)
	}
	for i := r.n; i < len(r.buf); i++ {
		if s := r.buf[(r.head+i)&(len(r.buf)-1)]; s.t != nil || s.weight != 0 {
			t.Fatalf("step %d: free slot %d still holds a root", step, i)
		}
	}
}

// TestTaskRingPopOrder: the ring pops the oldest of the heaviest roots,
// with the head wrapping around the buffer and the buffer growing while
// the head is mid-buffer, and refuses a pop below its min weight.
func TestTaskRingPopOrder(t *testing.T) {
	var r taskRing
	var m ringModel
	var got int32
	push := func(id, weight int32) {
		r.push(func(*Worker) { got = id }, weight)
		m.ids, m.weights = append(m.ids, id), append(m.weights, weight)
	}
	pop := func(step int, min int32) {
		want, wok := m.pop(min)
		task, ok := r.pop(min)
		if ok != wok {
			t.Fatalf("step %d: pop(%d) ok = %v, model %v", step, min, ok, wok)
		}
		if ok {
			task(nil)
			if got != want {
				t.Fatalf("step %d: pop(%d) took root %d, want %d", step, min, got, want)
			}
		}
		checkRing(t, step, &r, &m)
	}

	// A fixed case first: wrap the head, queue a heavy root behind light
	// ones across the wrap, then grow the buffer mid-buffer.
	id := int32(0)
	for ; id < 12; id++ {
		push(id, 1)
	}
	for step := 0; step < 10; step++ {
		pop(step, 1)
	}
	for ; id < 24; id++ { // wraps: head is 10 of 16
		push(id, 1+id%2*(id/20)) // roots 21 and 23 weigh 2
	}
	if r.head+r.n <= len(r.buf) {
		t.Fatalf("the queue [%d, %d) of %d slots does not wrap", r.head, r.head+r.n, len(r.buf))
	}
	pop(100, 3)           // nothing of weight 3
	pop(101, 2)           // 21, from behind the wrap
	pop(102, 2)           // 23
	pop(103, 2)           // nothing of weight 2 left
	for ; id < 40; id++ { // grows 16 → 32 with the head mid-buffer
		push(id, 1+id%5/4*7) // every fifth root weighs 8
	}
	if len(r.buf) != 32 {
		t.Fatalf("the ring holds %d slots, want grown to 32", len(r.buf))
	}
	for step := 200; r.len() > 0; step++ {
		pop(step, 1)
	}

	// Then random traffic over three weights, the ring at most 64 deep.
	g := rng.NewXoshiro256(7)
	weights := []int32{1, 2, 8}
	for step := 1000; step < 20000; step++ {
		if r.len() < 64 && g.Intn(2) == 0 {
			push(id, weights[g.Intn(len(weights))])
			id++
			checkRing(t, step, &r, &m)
		} else {
			pop(step, weights[g.Intn(len(weights))])
		}
	}
}

// TestTaskRingUniformWeightIsFIFO: with one weight, pop is the plain FIFO
// pop — the oldest root, at the head.
func TestTaskRingUniformWeightIsFIFO(t *testing.T) {
	var r taskRing
	var got int
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			r.push(func(*Worker) { got = i }, 8)
		}
		for i := 0; i < 40; i++ {
			head := r.head
			task, ok := r.pop(1)
			if !ok {
				t.Fatalf("round %d: pop %d found the ring empty", round, i)
			}
			if task(nil); got != i {
				t.Fatalf("round %d: pop %d took root %d", round, i, got)
			}
			if r.head != (head+1)&(len(r.buf)-1) {
				t.Fatalf("round %d: pop %d did not take the head", round, i)
			}
		}
		if r.top != 0 || r.ntop != 0 {
			t.Fatalf("round %d: empty ring reports top %d×%d", round, r.top, r.ntop)
		}
	}
}
