package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRangeSlotPublishTake(t *testing.T) {
	var s RangeSlot
	if s.Remaining() != 0 {
		t.Fatal("zero slot not empty")
	}
	if _, _, ok := s.TakeFront(4); ok {
		t.Fatal("TakeFront on empty slot succeeded")
	}
	if !s.Publish(10, 25) {
		t.Fatal("Publish failed on empty slot")
	}
	if s.Remaining() != 15 {
		t.Fatalf("Remaining = %d, want 15", s.Remaining())
	}
	// Front consumption in chunk-sized bites, remainder as the last bite.
	want := [][2]int{{10, 14}, {14, 18}, {18, 22}, {22, 25}}
	for _, w := range want {
		lo, hi, ok := s.TakeFront(4)
		if !ok || lo != w[0] || hi != w[1] {
			t.Fatalf("TakeFront = (%d,%d,%v), want (%d,%d,true)", lo, hi, ok, w[0], w[1])
		}
	}
	if _, _, ok := s.TakeFront(4); ok {
		t.Fatal("slot not empty after draining")
	}
	if !s.Publish(0, 1) {
		t.Fatal("slot not reusable after draining")
	}
}

func TestRangeSlotPublishRejections(t *testing.T) {
	var s RangeSlot
	if s.Publish(5, 5) || s.Publish(7, 3) {
		t.Fatal("Publish accepted an empty range")
	}
	// int32 overflow in either bound: the caller must fall back to eager
	// splitting, so Publish must refuse rather than truncate.
	big := int64(1) << 40
	if s.Publish(int(big), int(big)+100) {
		t.Fatal("Publish accepted lo beyond int32")
	}
	if s.Publish(0, int(big)) {
		t.Fatal("Publish accepted hi beyond int32")
	}
	if s.Publish(-int(big), 0) {
		t.Fatal("Publish accepted lo beyond -2^31")
	}
	// Occupied slot: re-entrant publish must fail and leave the content.
	if !s.Publish(3, 9) {
		t.Fatal("Publish failed on empty slot")
	}
	if s.Publish(100, 200) {
		t.Fatal("Publish succeeded over an occupied slot")
	}
	if s.Remaining() != 6 {
		t.Fatalf("occupied content clobbered: Remaining = %d", s.Remaining())
	}
	// Negative bounds within int32 are fine.
	s.Reset()
	if !s.Publish(-50, -10) {
		t.Fatal("Publish rejected a valid negative range")
	}
	lo, hi, ok := s.TakeFront(100)
	if !ok || lo != -50 || hi != -10 {
		t.Fatalf("TakeFront = (%d,%d,%v)", lo, hi, ok)
	}
}

func TestRangeSlotStealHalf(t *testing.T) {
	var s RangeSlot
	if _, _, ok := s.StealHalf(1); ok {
		t.Fatal("StealHalf on empty slot succeeded")
	}
	s.Publish(0, 100)
	lo, hi, ok := s.StealHalf(10)
	if !ok || lo != 50 || hi != 100 {
		t.Fatalf("StealHalf = (%d,%d,%v), want (50,100,true)", lo, hi, ok)
	}
	if s.Remaining() != 50 {
		t.Fatalf("victim Remaining = %d, want 50", s.Remaining())
	}
	// Halving continues only while more than min remains.
	for s.Remaining() > 10 {
		if _, _, ok := s.StealHalf(10); !ok {
			t.Fatalf("StealHalf failed with %d > min remaining", s.Remaining())
		}
	}
	if _, _, ok := s.StealHalf(10); ok {
		t.Fatal("StealHalf took below the min threshold")
	}
	// The owner still drains the remainder: thieves never empty a slot.
	if s.Remaining() == 0 {
		t.Fatal("thief emptied the slot")
	}
	s.Reset()
	if s.Remaining() != 0 {
		t.Fatal("Reset left content")
	}
}

// TestRangeSlotConcurrentExactlyOnce hammers one slot with an owner
// taking chunks and many thieves stealing halves, asserting every
// iteration of the published range is handed out exactly once. Run with
// -race for the full effect.
func TestRangeSlotConcurrentExactlyOnce(t *testing.T) {
	const n, chunk, thieves = 1 << 16, 7, 8
	var s RangeSlot
	counts := make([]atomic.Int32, n)
	claim := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			counts[i].Add(1)
		}
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if lo, hi, ok := s.StealHalf(chunk); ok {
					claim(lo, hi)
				}
			}
		}()
	}
	if !s.Publish(0, n) {
		t.Fatal("Publish failed")
	}
	for {
		lo, hi, ok := s.TakeFront(chunk)
		if !ok {
			break
		}
		claim(lo, hi)
	}
	stop.Store(true)
	wg.Wait()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("iteration %d handed out %d times", i, c)
		}
	}
}

// TestTakeGuidedWindows pins the owner's window sequence on a fresh
// range: capped by the limit while the range is long, then half the
// remainder rounded up to a chunk, down to single chunks.
func TestTakeGuidedWindows(t *testing.T) {
	var s RangeSlot
	if _, _, ok := s.TakeGuided(64, 4096); ok {
		t.Fatal("TakeGuided on empty slot succeeded")
	}
	s.Publish(0, 8192)
	want := []int{4096, 2048, 1024, 512, 256, 128, 64, 64}
	next := 0
	for i, n := range want {
		lo, hi, ok := s.TakeGuided(64, 4096)
		if !ok || lo != next || hi != next+n {
			t.Fatalf("take %d = (%d,%d,%v), want (%d,%d,true)", i, lo, hi, ok, next, next+n)
		}
		next = hi
	}
	if s.Remaining() != 0 {
		t.Fatalf("slot holds %d after the sequence", s.Remaining())
	}
	// An uneven remainder: half of 100 is 50, rounded up to chunk 16 is
	// 64; then half of 36 rounds up to 32; the last 4 go in one take.
	s.Publish(0, 100)
	for _, w := range [][2]int{{0, 64}, {64, 96}, {96, 100}} {
		lo, hi, ok := s.TakeGuided(16, 1024)
		if !ok || lo != w[0] || hi != w[1] {
			t.Fatalf("TakeGuided = (%d,%d,%v), want (%d,%d,true)", lo, hi, ok, w[0], w[1])
		}
	}
}

// TestTakeGuidedKeepsHalf: after every take the slot keeps at least
// ⌊r/2⌋ − chunk of the r iterations it held before, for every length
// and chunk in a small grid, and only the final take empties it.
func TestTakeGuidedKeepsHalf(t *testing.T) {
	for _, chunk := range []int{1, 3, 8, 64} {
		for n := 1; n <= 600; n++ {
			var s RangeSlot
			s.Publish(0, n)
			next := 0
			for {
				r := s.Remaining()
				lo, hi, ok := s.TakeGuided(chunk, 16*chunk)
				if !ok {
					t.Fatalf("n=%d chunk=%d: take failed with %d left", n, chunk, r)
				}
				if lo != next || hi <= lo {
					t.Fatalf("n=%d chunk=%d: took [%d,%d), want it to start at %d", n, chunk, lo, hi, next)
				}
				next = hi
				left := s.Remaining()
				if left != r-(hi-lo) {
					t.Fatalf("n=%d chunk=%d: slot holds %d after taking %d of %d", n, chunk, left, hi-lo, r)
				}
				if left < r/2-chunk {
					t.Fatalf("n=%d chunk=%d: slot keeps %d of %d, want at least %d", n, chunk, left, r, r/2-chunk)
				}
				if left == 0 {
					break
				}
				if hi-lo < chunk || (hi-lo)%chunk != 0 {
					t.Fatalf("n=%d chunk=%d: non-final take of %d is not whole chunks", n, chunk, hi-lo)
				}
			}
			if next != n {
				t.Fatalf("n=%d chunk=%d: takes ended at %d", n, chunk, next)
			}
		}
	}
}

// TestTakeGuidedFinalTakeEmpties: the owner empties the slot only with
// the take that returns the range's end; a thief can still steal until
// then and never empties it.
func TestTakeGuidedFinalTakeEmpties(t *testing.T) {
	var s RangeSlot
	s.Publish(0, 1000)
	for {
		lo, hi, ok := s.TakeGuided(10, 200)
		if !ok {
			t.Fatal("slot emptied before a take returned its end")
		}
		if hi == 1000 {
			if s.Remaining() != 0 {
				t.Fatalf("final take [%d,%d) left %d", lo, hi, s.Remaining())
			}
			break
		}
		if s.Remaining() == 0 {
			t.Fatalf("take [%d,%d) emptied the slot before the end", lo, hi)
		}
	}
	if _, _, ok := s.TakeGuided(10, 200); ok {
		t.Fatal("TakeGuided succeeded on the emptied slot")
	}
	// A thief taking the back half between the owner's takes leaves the
	// owner the final take of what remains.
	s.Publish(0, 1000)
	s.TakeGuided(10, 200) // [0,200)
	if lo, hi, ok := s.StealHalf(10); !ok || lo != 600 || hi != 1000 {
		t.Fatalf("StealHalf = (%d,%d,%v), want (600,1000,true)", lo, hi, ok)
	}
	end := 0
	for {
		_, hi, ok := s.TakeGuided(10, 200)
		if !ok {
			break
		}
		end = hi
	}
	if end != 600 {
		t.Fatalf("owner's takes ended at %d, want 600", end)
	}
}

// TestTakeGuidedStealBackExactlyOnce races an owner taking guided
// windows against StealBack thieves (½ and ¾) and asserts every
// iteration is handed out exactly once. Run with -race for the full
// effect.
func TestTakeGuidedStealBackExactlyOnce(t *testing.T) {
	const n, chunk, thieves, rounds = 1 << 14, 8, 4, 50
	for round := 0; round < rounds; round++ {
		var s RangeSlot
		counts := make([]atomic.Int32, n)
		claim := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		}
		var wg sync.WaitGroup
		var stop atomic.Bool
		for i := 0; i < thieves; i++ {
			num, den := 1, 2
			if i%2 == 1 {
				num, den = 3, 4
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if lo, hi, ok := s.StealBack(chunk, num, den); ok {
						claim(lo, hi)
					}
				}
			}()
		}
		if !s.Publish(0, n) {
			t.Fatal("Publish failed")
		}
		for {
			lo, hi, ok := s.TakeGuided(chunk, 64*chunk)
			if !ok {
				break
			}
			claim(lo, hi)
		}
		stop.Store(true)
		wg.Wait()
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("round %d: iteration %d handed out %d times", round, i, c)
			}
		}
	}
}

// TestRangeSlotAbandon: Abandon atomically takes the whole remainder out
// of circulation — it returns the abandoned range exactly once, leaves
// the slot empty for thieves and owner alike, and reports nothing on an
// already-empty slot.
func TestRangeSlotAbandon(t *testing.T) {
	var s RangeSlot
	if _, _, ok := s.Abandon(); ok {
		t.Fatal("Abandon on empty slot reported a range")
	}
	if !s.Publish(100, 500) {
		t.Fatal("Publish failed")
	}
	lo, hi, ok := s.Abandon()
	if !ok || lo != 100 || hi != 500 {
		t.Fatalf("Abandon = [%d, %d) ok=%v, want [100, 500) true", lo, hi, ok)
	}
	if _, _, ok := s.Abandon(); ok {
		t.Fatal("second Abandon reported a range")
	}
	if s.Remaining() != 0 {
		t.Fatal("Abandon left content in the slot")
	}
	if _, _, ok := s.StealHalf(1); ok {
		t.Fatal("StealHalf succeeded on an abandoned slot")
	}
	if _, _, ok := s.TakeFront(1); ok {
		t.Fatal("TakeFront succeeded on an abandoned slot")
	}
	// The slot is reusable after abandonment.
	if !s.Publish(0, 10) {
		t.Fatal("Publish failed after Abandon")
	}
}

// TestRangeSlotAbandonStealRace races Abandon against thieves: every
// iteration of the published range must end up either stolen or
// abandoned, exactly once — the poisoning guarantee cancellation relies
// on (a steal CAS that completed first owns its half; later thieves see
// the empty word).
func TestRangeSlotAbandonStealRace(t *testing.T) {
	const n, chunk, thieves, rounds = 1 << 12, 5, 4, 200
	for round := 0; round < rounds; round++ {
		var s RangeSlot
		counts := make([]atomic.Int32, n)
		claim := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		}
		if !s.Publish(0, n) {
			t.Fatal("Publish failed")
		}
		var wg sync.WaitGroup
		var start sync.WaitGroup
		start.Add(1)
		for i := 0; i < thieves; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				for {
					lo, hi, ok := s.StealHalf(chunk)
					if !ok {
						return
					}
					claim(lo, hi)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			if lo, hi, ok := s.Abandon(); ok {
				claim(lo, hi)
			}
		}()
		start.Done()
		wg.Wait()
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("round %d: iteration %d claimed %d times", round, i, c)
			}
		}
	}
}
