// Package randx provides deterministic, seedable randomness and the
// distributions used to synthesize crowdsourcing workloads.
//
// Every simulation component in this repository draws randomness through an
// explicit *randx.RNG so that experiments are reproducible from a single
// seed and repetitions can derive independent, stable sub-streams.
package randx

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG is a deterministic random source. It wraps math/rand with explicit
// seeding (no global state, per the style guides) and adds the derived
// distributions the generators need.
//
// Every RNG carries a stream identity separate from the generator state:
// Split and SplitIndex derive sub-streams by hashing that identity with a
// label, never by drawing from the generator. Derivation is therefore a
// pure function of the construction path — New(s).Split("a") names the
// same stream no matter how much randomness the parent has consumed or
// how many sibling streams were derived before it.
type RNG struct {
	r *rand.Rand
	// stream is the derivation identity: splitmix(seed) at construction,
	// re-derived on every Split. Only Split/SplitIndex read it.
	stream uint64
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), stream: splitmix(uint64(seed))}
}

// Split derives an independent sub-stream for the given label. Identical
// (seed, label) pairs always produce identical streams, which lets the
// experiment harness give each repetition and each component its own
// stable randomness.
//
// The derivation hashes the parent's stream identity with the label and
// consumes no randomness from the parent: interleaving Split calls with
// draws (or with other Splits) never changes the streams they return, and
// splitting the same label twice names the same stream both times.
func (g *RNG) Split(label string) *RNG {
	s := splitmix(g.stream ^ hash64(label))
	return &RNG{r: rand.New(rand.NewSource(int64(s))), stream: s}
}

// SplitIndex derives an independent sub-stream for an integer index. Like
// Split, it consumes no randomness from the parent.
func (g *RNG) SplitIndex(i int) *RNG {
	return g.Split(fmt.Sprintf("idx:%d", i))
}

// hash64 is the FNV-1a 64-bit hash of s.
func hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix is the SplitMix64 finalizer; it decorrelates derived seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Normal returns a normal deviate with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). Worker costs follow this shape: the
// eBay bid-price dataset the paper samples costs from is right-skewed.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (g *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("randx: Sample(%d, %d) out of range", n, k))
	}
	perm := g.r.Perm(n)
	return perm[:k]
}
