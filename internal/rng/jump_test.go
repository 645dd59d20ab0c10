package rng

import "testing"

// berlekampMassey returns the shortest linear recurrence over GF(2) that
// generates s, as its connection polynomial c (c[0] = 1, len(c) = L+1):
// s[n] = c[1]·s[n-1] ^ ... ^ c[L]·s[n-L] for every n >= L.
func berlekampMassey(s []uint8) []uint8 {
	c, b := []uint8{1}, []uint8{1}
	l, m := 0, 1
	for n := range s {
		d := s[n]
		for i := 1; i <= l; i++ {
			d ^= c[i] & s[n-i]
		}
		if d == 0 {
			m++
			continue
		}
		prev := append([]uint8(nil), c...)
		for len(c) < len(b)+m {
			c = append(c, 0)
		}
		for i, v := range b {
			c[i+m] ^= v
		}
		if 2*l <= n {
			l, b, m = n+1-l, prev, 1
		} else {
			m++
		}
	}
	for len(c) < l+1 {
		c = append(c, 0)
	}
	return c[:l+1]
}

// TestCharPolyByBerlekampMassey derives the characteristic polynomial from
// one state bit's sequence: the polynomial is primitive, so the sequence's
// minimal polynomial is all of it, of degree 256, and 2·256 terms fix it.
func TestCharPolyByBerlekampMassey(t *testing.T) {
	x := NewXoshiro256(1)
	s := make([]uint8, 1024)
	for i := range s {
		s[i] = uint8(x.s[0] & 1)
		x.Next()
	}
	c := berlekampMassey(s)
	if len(c) != 257 {
		t.Fatalf("linear complexity %d, want 256", len(c)-1)
	}
	// P(x) = x^256 · C(1/x): the coefficient of x^k is c[256-k].
	var p [4]uint64
	for k := 0; k < 256; k++ {
		p[k/64] |= uint64(c[256-k]) << (k % 64)
	}
	if p != charPoly {
		t.Fatalf("Berlekamp–Massey gives %#016x, charPoly holds %#016x", p, charPoly)
	}
}

// TestJumpPolyMatchesReferenceJumps holds x^(2^128) and x^(2^192) mod P to
// the constants of the xoshiro256 reference jump() and long_jump().
func TestJumpPolyMatchesReferenceJumps(t *testing.T) {
	want := map[int][4]uint64{
		128: {0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c},
		192: {0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635},
	}
	r := [4]uint64{2} // x
	for k := 1; k <= 192; k++ {
		r = mulMod(r, r)
		if w, ok := want[k]; ok && r != w {
			t.Errorf("x^(2^%d) mod P = %#016x, reference %#016x", k, r, w)
		}
	}
}

func TestJumpMatchesNext(t *testing.T) {
	for _, n := range []uint64{0, 1, 255, 256, 257, 1 << 15, 1<<20 + 3} {
		stepped, jumped := NewXoshiro256(42), NewXoshiro256(42)
		for i := uint64(0); i < n; i++ {
			stepped.Next()
		}
		jumped.Jump(n)
		if *jumped != *stepped {
			t.Fatalf("Jump(%d) state %#x, %d calls of Next %#x", n, jumped.s, n, stepped.s)
		}
		if a, b := jumped.Next(), stepped.Next(); a != b {
			t.Fatalf("after Jump(%d): next value %#x, want %#x", n, a, b)
		}
	}
}

// FuzzJump checks that jumps compose and, for short jumps, that a jump is
// the same number of calls of Next. The seed corpus runs under go test.
func FuzzJump(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(7), uint64(1), uint64(4095))
	f.Add(uint64(99), uint64(4095), uint64(1)<<40)
	f.Add(uint64(3), uint64(1)<<63, uint64(1)<<63-1)
	f.Add(uint64(314159265), uint64(1000), uint64(1)<<20)
	f.Fuzz(func(t *testing.T, seed, a, b uint64) {
		if a+b < a {
			t.Skip("a+b overflows")
		}
		twice, once := NewXoshiro256(seed), NewXoshiro256(seed)
		twice.Jump(a)
		twice.Jump(b)
		once.Jump(a + b)
		if *twice != *once {
			t.Fatalf("Jump(%d) then Jump(%d) != Jump(%d)", a, b, a+b)
		}
		if a < 4096 {
			jumped, stepped := NewXoshiro256(seed), NewXoshiro256(seed)
			jumped.Jump(a)
			for i := uint64(0); i < a; i++ {
				stepped.Next()
			}
			if *jumped != *stepped {
				t.Fatalf("Jump(%d) != %d calls of Next", a, a)
			}
		}
	})
}

func BenchmarkNewJumpPoly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchJump = NewJumpPoly(1 << 15)
	}
}

func BenchmarkAdvance(b *testing.B) {
	x := NewXoshiro256(1)
	j := NewJumpPoly(1 << 15)
	for i := 0; i < b.N; i++ {
		x.Advance(j)
	}
}

var benchJump JumpPoly
