package nas

import (
	"fmt"
	"math"

	"hybridloop"
	"hybridloop/internal/rng"
)

// IS is the NPB integer-sort kernel: rank N keys drawn from [0, MaxKey)
// by counting sort, repeated for Iterations rounds. As in NPB, each round
// perturbs two keys (a function of the round number) before ranking, so
// the work cannot be hoisted out of the loop.
//
// The parallel round (ranker, below) is NPB's per-thread-histogram scheme
// with segments in place of threads: the key array is cut into
// G = min(ceil(N/1024), 8*workers) contiguous segments, each with a private
// MaxKey-wide histogram — O(workers*MaxKey) counters in all, whatever N is.
// Segments are counted in parallel, the exclusive prefix over (bucket,
// segment) pairs is taken in parallel over bucket ranges, and each segment
// then assigns its own keys' ranks in parallel. A key's rank is the number
// of keys in smaller buckets plus the number of equal keys at smaller
// indices — a function of the keys alone — so every segmentation, and
// therefore every pool size and schedule, produces the same bits as
// rankSequential.
//
// Deviation from NPB (documented in DESIGN.md): keys come from our
// xoshiro generator rather than NPB's sum-of-four-randlc recipe — the
// distribution (uniform over the key range) and the ranking algorithm are
// what the scheduling study exercises, not the exact key values.
//
// Parallel also makes the keys on the pool, in blocks of genBlock keys:
// each block's generator is genKeys's, jumped ahead to the block's first
// draw (parallelFill; NPB's find_my_seed does the same for its LCG), so
// the keys are genKeys's bit for bit.
type IS struct {
	N          int // number of keys (NPB class S: 2^16, W: 2^20, A: 2^23)
	MaxKey     int // key range (NPB: 2^11 .. 2^19 depending on class)
	Iterations int // ranking rounds (NPB: 10)
	Seed       uint64
}

// ISResult carries the final ranks and the verification counters.
type ISResult struct {
	Keys  []int32 // the key array after the final round's perturbations
	Ranks []int32 // Ranks[i] = rank of Keys[i] in the sorted order
}

func (s IS) defaults() IS {
	if s.Iterations == 0 {
		s.Iterations = 10
	}
	if s.MaxKey == 0 {
		s.MaxKey = 1 << 11
	}
	if s.Seed == 0 {
		s.Seed = 314159265
	}
	// Ranks and bucket counts are int32, as in NPB.
	if s.N <= 0 || s.N > math.MaxInt32 {
		panic(fmt.Sprintf("nas: IS N=%d", s.N))
	}
	if s.MaxKey <= 0 {
		panic(fmt.Sprintf("nas: IS MaxKey=%d", s.MaxKey))
	}
	return s
}

// genKeys produces the initial key array (deterministic in the seed).
func (s IS) genKeys() []int32 {
	g := rng.NewXoshiro256(s.Seed)
	keys := make([]int32, s.N)
	for i := range keys {
		keys[i] = int32(g.Intn(s.MaxKey))
	}
	return keys
}

// perturb is NPB's per-iteration modification: place the iteration number
// and its complement (both modulo MaxKey, into [0, MaxKey)) at positions
// derived from the round.
func (s IS) perturb(keys []int32, round int) {
	k := round % s.MaxKey
	keys[round%s.N] = int32(k)
	keys[(round+s.N/2)%s.N] = int32((s.MaxKey - k) % s.MaxKey)
}

// rankSequential ranks keys by counting sort, sequentially.
func (s IS) rankSequential(keys []int32) []int32 {
	hist := make([]int32, s.MaxKey)
	for _, k := range keys {
		hist[k]++
	}
	// Exclusive prefix sum: start rank of each bucket.
	var acc int32
	for b := range hist {
		c := hist[b]
		hist[b] = acc
		acc += c
	}
	ranks := make([]int32, len(keys))
	// Stable within a bucket by index order.
	for i, k := range keys {
		ranks[i] = hist[k]
		hist[k]++
	}
	return ranks
}

// Sequential runs all rounds without parallel constructs.
func (s IS) Sequential() ISResult {
	s = s.defaults()
	keys := s.genKeys()
	var ranks []int32
	for round := 0; round < s.Iterations; round++ {
		s.perturb(keys, round)
		ranks = s.rankSequential(keys)
	}
	return ISResult{Keys: keys, Ranks: ranks}
}

// Parallel generates the keys and runs all rounds on the pool; the result
// is bit-identical to Sequential (see the type comment).
func (s IS) Parallel(p Pool, opts ...hybridloop.ForOption) ISResult {
	s = s.defaults()
	keys := make([]int32, s.N)
	parallelFill(p, opts, s.Seed, s.N, 1, func(g *rng.Xoshiro256, lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = int32(g.Intn(s.MaxKey)) // one draw a key, as in genKeys
		}
	})
	r := s.newRanker(p, opts)
	for round := 0; round < s.Iterations; round++ {
		s.perturb(keys, round)
		r.rank(keys)
	}
	return ISResult{Keys: keys, Ranks: r.ranks}
}

// prefixRange is the number of buckets one iteration of the prefix loop
// covers: 4 KB of each histogram row and of starts.
const prefixRange = 1024

// ranker is the parallel ranking round and the scratch it reuses across
// the rounds of one call.
type ranker struct {
	p      Pool
	opts   []hybridloop.ForOption
	n      int     // keys
	maxKey int     // buckets
	segs   int     // G contiguous segments of n/G keys, give or take one
	hist   []int32 // segs rows of maxKey counters, one row a segment
	starts []int32 // per bucket: keys in smaller buckets of its prefix range
	bases  []int32 // per prefix range: keys in the ranges before it
	ranks  []int32 // the round's output, overwritten by the next round
}

func (s IS) newRanker(p Pool, opts []hybridloop.ForOption) *ranker {
	segs := min(numBlocks(s.N), 8*p.Workers())
	return &ranker{
		p: p, opts: opts, n: s.N, maxKey: s.MaxKey, segs: segs,
		hist:   make([]int32, segs*s.MaxKey),
		starts: make([]int32, s.MaxKey),
		bases:  make([]int32, (s.MaxKey+prefixRange-1)/prefixRange),
		ranks:  make([]int32, s.N),
	}
}

func (r *ranker) row(g int) []int32 { return r.hist[g*r.maxKey : (g+1)*r.maxKey] }

// segment returns the bounds of segment g's keys (n fits int32 and g is at
// most 8*workers, so the products fit an int).
func (r *ranker) segment(g int) (lo, hi int) { return g * r.n / r.segs, (g + 1) * r.n / r.segs }

// rank fills r.ranks with the stable counting-sort ranks of keys.
func (r *ranker) rank(keys []int32) {
	segs, maxKey := r.segs, r.maxKey
	// Count: a private histogram per segment.
	r.p.For(0, segs, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			h := r.row(g)
			clear(h)
			lo, hi := r.segment(g)
			for _, k := range keys[lo:hi] {
				h[k]++
			}
		}
	}, r.opts...)
	// Prefix, local to each range of buckets and walking the rows in
	// memory order: row g is left holding, per bucket, the equal keys in
	// segments before g; starts the keys in smaller buckets of the range;
	// bases the range's total.
	r.p.For(0, len(r.bases), func(rlo, rhi int) {
		for q := rlo; q < rhi; q++ {
			lo, hi := q*prefixRange, min((q+1)*prefixRange, maxKey)
			acc := r.starts[lo:hi]
			clear(acc)
			for g := 0; g < segs; g++ {
				h := r.row(g)[lo:hi]
				for j, c := range h {
					h[j] = acc[j]
					acc[j] += c
				}
			}
			var sum int32
			for j, c := range acc {
				acc[j] = sum
				sum += c
			}
			r.bases[q] = sum
		}
	}, r.opts...)
	// The range totals are few (maxKey/prefixRange): scan them here.
	var sum int32
	for q, c := range r.bases {
		r.bases[q] = sum
		sum += c
	}
	// Assign: each segment completes its row into per-bucket next ranks
	// and hands them out in index order.
	r.p.For(0, segs, func(glo, ghi int) {
		for g := glo; g < ghi; g++ {
			h := r.row(g)
			for b := range h {
				h[b] += r.starts[b] + r.bases[b/prefixRange]
			}
			lo, hi := r.segment(g)
			for i := lo; i < hi; i++ {
				k := keys[i]
				r.ranks[i] = h[k]
				h[k]++
			}
		}
	}, r.opts...)
}

// VerifyRanks checks the ranking invariants: ranks form a permutation of
// [0, N), and ordering by rank sorts the keys stably.
func VerifyRanks(keys, ranks []int32) error {
	n := len(keys)
	if len(ranks) != n {
		return fmt.Errorf("nas: ranks length %d != keys length %d", len(ranks), n)
	}
	sorted := make([]int32, n)
	seen := make([]bool, n)
	for i, r := range ranks {
		if r < 0 || int(r) >= n {
			return fmt.Errorf("nas: rank %d out of range", r)
		}
		if seen[r] {
			return fmt.Errorf("nas: duplicate rank %d", r)
		}
		seen[r] = true
		sorted[r] = keys[i]
	}
	for i := 1; i < n; i++ {
		if sorted[i-1] > sorted[i] {
			return fmt.Errorf("nas: keys not sorted at rank %d: %d > %d", i, sorted[i-1], sorted[i])
		}
	}
	return nil
}
