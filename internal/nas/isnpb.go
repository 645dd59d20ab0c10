package nas

import (
	"fmt"

	"hybridloop"
	"hybridloop/internal/rng"
)

// This file implements the NPB IS benchmark's key generation faithfully
// (is.c create_seq): each key is (MaxKey/4) * (r1 + r2 + r3 + r4) where
// the r's are four consecutive randlc draws from the stream seeded
// 314159265 — an Irwin–Hall (bell-shaped) distribution over the key
// range, which loads the middle buckets far more heavily than the tails.
// That distribution is part of what the scheduling study exercises: with
// bucketed ranking, uniform keys would make the histogram trivially
// balanced, while NPB's bell shape is why bucket-parallel versions of IS
// are unbalanced.
//
// The per-round perturbation and ranking match is.c's rank(): iteration i
// sets key[i] = i and key[i + MAX_ITERATIONS] = MaxKey - i, then ranks
// all keys; full_verify checks the final permutation sorts the keys.
// (NPB's partial verification compares five class-specific rank values
// per round; those constants are not reproduced here — full verification
// and sequential/parallel bitwise equality stand in.)

// NPBISClass holds the NPB class constants for IS.
type NPBISClass struct {
	Class      byte
	N          int // total keys (2^16 class S, 2^20 W, 2^23 A)
	MaxKey     int // 2^11 class S, 2^16 W, 2^19 A
	Iterations int // 10 for all classes
}

// NPBISClasses lists the implemented classes.
var NPBISClasses = map[byte]NPBISClass{
	'S': {Class: 'S', N: 1 << 16, MaxKey: 1 << 11, Iterations: 10},
	'W': {Class: 'W', N: 1 << 20, MaxKey: 1 << 16, Iterations: 10},
	'A': {Class: 'A', N: 1 << 23, MaxKey: 1 << 19, Iterations: 10},
}

// createSeq is is.c's key generator.
func createSeq(n, maxKey int) []int32 {
	g := rng.NewNPB(314159265)
	k := maxKey / 4
	keys := make([]int32, n)
	for i := range keys {
		x := g.Next()
		x += g.Next()
		x += g.Next()
		x += g.Next()
		keys[i] = int32(float64(k) * x)
	}
	return keys
}

// NPBIS runs the NPB IS benchmark for the class: Iterations ranking
// rounds with the per-round perturbation, returning the final keys and
// ranks (verify with VerifyRanks). pool nil runs sequentially.
func NPBIS(c NPBISClass, pool Pool, opts ...hybridloop.ForOption) ISResult {
	keys := createSeq(c.N, c.MaxKey)
	is := IS{N: c.N, MaxKey: c.MaxKey, Iterations: c.Iterations}
	if pool == nil {
		return is.runSequentialOn(keys)
	}
	return is.runParallelOn(pool, keys, opts...)
}

// perturbNPB is is.c's per-round modification: key[iteration] = iteration
// and key[iteration + MAX_ITERATIONS] = MAX_KEY - iteration.
func (s IS) perturbNPB(keys []int32, round int) {
	const maxIterations = 10
	keys[round] = int32(round)
	keys[round+maxIterations] = int32(s.MaxKey - round)
}

// runSequentialOn ranks the provided keys for all rounds, sequentially.
func (s IS) runSequentialOn(keys []int32) ISResult {
	s = s.defaults()
	if len(keys) != s.N {
		panic(fmt.Sprintf("nas: %d keys for N=%d", len(keys), s.N))
	}
	var ranks []int32
	for round := 1; round <= s.Iterations; round++ {
		s.perturbNPB(keys, round)
		ranks = s.rankSequential(keys)
	}
	return ISResult{Keys: keys, Ranks: ranks}
}

// runParallelOn ranks the provided keys for all rounds on the pool,
// reproducing the sequential stable ranking exactly.
func (s IS) runParallelOn(p Pool, keys []int32, opts ...hybridloop.ForOption) ISResult {
	s = s.defaults()
	r := s.newRanker(p, opts)
	for round := 1; round <= s.Iterations; round++ {
		s.perturbNPB(keys, round)
		r.rank(keys)
	}
	return ISResult{Keys: keys, Ranks: r.ranks}
}

// BucketLoads returns, for diagnostic purposes, the histogram of the NPB
// key distribution split into nBuckets coarse buckets — showing the
// Irwin–Hall imbalance (middle buckets ~6x the tails for 16 buckets).
func BucketLoads(c NPBISClass, nBuckets int) []int {
	keys := createSeq(c.N, c.MaxKey)
	loads := make([]int, nBuckets)
	for _, k := range keys {
		loads[int(k)*nBuckets/c.MaxKey]++
	}
	return loads
}
