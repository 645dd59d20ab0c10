package rng

import "math/bits"

// Jump-ahead for Xoshiro256.
//
// The state update of xoshiro256 (the linear engine under the ** scrambler)
// is a linear map T on GF(2)^256. Its characteristic polynomial P(x) has
// degree 256 and, by Cayley–Hamilton, T^n = r(T) for r(x) = x^n mod P(x).
// With r(x) the sum of r_i x^i over i < 256, the state n steps ahead is the
// XOR of the states i steps ahead for every i with r_i = 1: 256 generator
// steps, whatever n is. Computing r takes one squaring modulo P per bit of
// n. The xoshiro authors' jump functions are this with r fixed at x^(2^128)
// and x^(2^192).

// charPoly holds the coefficients of x^0 .. x^255 of P(x), the coefficient
// of x^i in bit i%64 of word i/64; the x^256 term is implicit.
// TestCharPolyByBerlekampMassey derives it from the generator.
var charPoly = [4]uint64{
	0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19,
}

// JumpPoly is x^n mod P(x) for a step count n; Advance applies it.
// Making one costs a squaring modulo P per bit of n and applying it 256
// generator steps, so a caller that jumps by the same n many times makes
// it once.
type JumpPoly struct {
	r [4]uint64
}

// NewJumpPoly returns the jump polynomial of n steps.
func NewJumpPoly(n uint64) JumpPoly {
	r := [4]uint64{1}
	for bit := bits.Len64(n) - 1; bit >= 0; bit-- {
		r = mulMod(r, r)
		if n>>uint(bit)&1 == 1 {
			r = timesX(r)
		}
	}
	return JumpPoly{r: r}
}

// timesX returns a·x mod P.
func timesX(a [4]uint64) [4]uint64 {
	carry := a[3] >> 63
	a[3] = a[3]<<1 | a[2]>>63
	a[2] = a[2]<<1 | a[1]>>63
	a[1] = a[1]<<1 | a[0]>>63
	a[0] <<= 1
	mask := -carry // x^256 ≡ P(x) - x^256
	for i := range a {
		a[i] ^= charPoly[i] & mask
	}
	return a
}

// mulMod returns a·b mod P by Horner's rule over the bits of b, top first.
func mulMod(a, b [4]uint64) [4]uint64 {
	var r [4]uint64
	for w := 3; w >= 0; w-- {
		for bit := 63; bit >= 0; bit-- {
			r = timesX(r)
			mask := -(b[w] >> uint(bit) & 1)
			for i := range r {
				r[i] ^= a[i] & mask
			}
		}
	}
	return r
}

// Advance moves the generator forward by the step count j was made for, as
// if Next had been called that many times. It steps a copy of the state in
// locals, by Next's update without the output.
func (x *Xoshiro256) Advance(j JumpPoly) {
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	var a0, a1, a2, a3 uint64
	for _, w := range j.r {
		for bit := 0; bit < 64; bit++ {
			m := -(w >> uint(bit) & 1)
			a0, a1, a2, a3 = a0^s0&m, a1^s1&m, a2^s2&m, a3^s3&m
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
		}
	}
	x.s = [4]uint64{a0, a1, a2, a3}
}

// Jump moves the generator forward by n steps in O(log n) time, as if Next
// had been called n times.
func (x *Xoshiro256) Jump(n uint64) { x.Advance(NewJumpPoly(n)) }
