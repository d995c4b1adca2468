// Package xrand provides the deterministic pseudo-random number generation
// used throughout the simulator. Every workload, predictor tie-break, and
// experiment draws from a named, seeded stream so that results are
// bit-for-bit reproducible across runs and across Go releases (math/rand's
// global source and shuffling internals are not guaranteed stable, and
// math/rand/v2 re-seeds by default).
//
// The generator is xoshiro256**, seeded via splitmix64 per the algorithm
// authors' recommendation.
package xrand

import (
	"hash/fnv"
	"math"
)

// Rand is a deterministic xoshiro256** PRNG. The zero value is not usable;
// construct with New or NewFromString.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed expander and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator in place from the given 64-bit seed,
// exactly as New would. It lets pooled simulator structures restart their
// random stream without allocating.
func (r *Rand) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state; splitmix64 of any seed
	// cannot produce four zero outputs, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// NewFromString returns a generator seeded from the FNV-1a hash of name.
// Named seeds keep independent subsystems (per-core workloads, trap timing,
// branch noise) decorrelated while remaining reproducible.
func NewFromString(name string) *Rand {
	r := &Rand{}
	r.SeedFromString(name)
	return r
}

// SeedFromString re-initializes the generator in place from the FNV-1a
// hash of name, exactly as NewFromString would, without allocating.
func (r *Rand) SeedFromString(name string) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	r.Seed(h.Sum64())
}

// Fork derives an independent generator from this one, labeled by name.
// Forking does not disturb the parent's future output beyond consuming one
// draw.
func (r *Rand) Fork(name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(r.Uint64() ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= -un%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("xrand: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ZipfTable is a precomputed inverse-CDF sampler for a Zipf distribution
// over [0, n) with skew s. Rank 0 is the most popular element. Workload
// construction uses Zipf popularity for transaction types, call sites, and
// shared-library hot paths.
type ZipfTable struct {
	cum []float64 // cumulative normalized weights, len n
}

// NewZipfTable builds the sampler. It panics if n <= 0 or s < 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("xrand: NewZipfTable with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipfTable with negative skew")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &ZipfTable{cum: cum}
}

// N returns the number of ranks in the table.
func (z *ZipfTable) N() int { return len(z.cum) }

// Sample draws a rank in [0, N()) using r.
func (z *ZipfTable) Sample(r *Rand) int {
	target := r.Float64()
	// Binary search for the first cumulative weight >= target.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
