// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the runtime and the simulator.
//
// The work-stealing scheduler needs per-worker generators that are cheap
// (a steal attempt is on the hot path), independent (workers must not
// share state), and seedable (the simulator demands exact reproducibility).
// The package provides:
//
//   - SplitMix64: a tiny generator mainly used to seed others and to derive
//     independent streams from a single master seed.
//   - Xoshiro256: xoshiro256** — the general-purpose generator for victim
//     selection and workload generation. Jump and Advance skip it ahead by
//     any number of steps in O(log n) (jump.go), so a parallel fill can
//     start each block of one stream at its first draw, as NPB's
//     find_my_seed does with its LCG.
//   - NPB: the linear congruential generator specified by the NAS Parallel
//     Benchmarks (a = 5^13, modulus 2^46), needed by the EP kernel, which
//     defines its output in terms of this exact sequence.
package rng

// SplitMix64 is Steele, Lea & Flood's splitmix64 generator. The zero value
// is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is Blackman & Vigna's xoshiro256** generator.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// SplitMix64, as recommended by the xoshiro authors. Distinct seeds yield
// independent streams for practical purposes.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one fixed point of the generator.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Next returns the next value in the sequence.
func (x *Xoshiro256) Next() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift reduction (without the rejection step;
// the bias is < 2^-64 * n, negligible for victim selection and workloads).
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, _ := mul64(x.Next(), n)
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	return a1*b1 + t>>32 + w1>>32, a * b
}

// NPB is the pseudo-random number generator specified by the NAS Parallel
// Benchmarks: x_{k+1} = a * x_k mod 2^46 with a = 5^13, returning
// x_k * 2^-46 in (0, 1). The EP kernel's output is defined in terms of this
// exact sequence, so we implement it bit-for-bit (in integer arithmetic
// rather than the Fortran double-double trick).
type NPB struct {
	x uint64
}

// NPBDefaultSeed is the canonical seed used by the NPB reference
// implementations (271828183, the digits of e).
const NPBDefaultSeed = 271828183

const (
	npbA    = 1220703125      // 5^13
	npbMask = (1 << 46) - 1   // modulus 2^46
	npbNorm = 1.0 / (1 << 46) // 2^-46
)

// NewNPB returns an NPB generator with the given seed (x_0).
func NewNPB(seed uint64) *NPB {
	return &NPB{x: seed & npbMask}
}

// Next advances the sequence and returns x_{k+1} * 2^-46 in (0, 1).
func (g *NPB) Next() float64 {
	g.x = (g.x * npbA) & npbMask
	return float64(g.x) * npbNorm
}

// Seed returns the current raw state x_k.
func (g *NPB) Seed() uint64 { return g.x }

// SetSeed sets the raw state to x (mod 2^46).
func (g *NPB) SetSeed(x uint64) { g.x = x & npbMask }

// Skip advances the generator by n steps in O(log n) time using
// exponentiation by squaring: x_{k+n} = a^n * x_k mod 2^46. NPB's EP kernel
// relies on this to give each parallel chunk an independent slice of the
// one global sequence.
func (g *NPB) Skip(n uint64) {
	a := uint64(npbA)
	x := g.x
	for n > 0 {
		if n&1 == 1 {
			x = (x * a) & npbMask
		}
		a = (a * a) & npbMask
		n >>= 1
	}
	g.x = x
}
