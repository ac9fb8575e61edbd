// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Every stochastic quantity in the reproduction (synthetic weights, sparsity
// draws, MLP initialisation, noise samples) is derived from an rng.Source so
// that experiments are reproducible bit-for-bit across runs and platforms.
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny,
// fast, full 64-bit period, and trivially seedable from a string label so
// that independent subsystems get decorrelated streams without coordination.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic SplitMix64 stream. The zero value is a valid
// generator seeded with 0; prefer New or NewFromString for labelled streams.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewFromString returns a Source whose seed is derived from label via FNV-1a.
// Two different labels yield decorrelated streams; the same label always
// yields the same stream.
func NewFromString(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) // hash.Hash.Write is documented to never fail
	return &Source{state: h.Sum64()}
}

// FNV-1a 64-bit constants, identical to hash/fnv. HashBytes re-implements
// the digest inline so hot paths can derive labelled seeds without the
// hash.Hash allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashBytes returns the FNV-1a hash of label, bit-identical to the seed
// NewFromString derives from the equivalent string. It performs no
// allocations, so callers can build labels into a reusable byte buffer and
// reseed a long-lived Source on a hot path.
func HashBytes(label []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range label {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Reseed resets the stream to the given seed, as if freshly constructed by
// New(seed). Together with HashBytes it lets hot paths reuse one Source
// across labelled streams without allocating a new generator per label.
func (s *Source) Reseed(seed uint64) { s.state = seed }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// Use the top 53 bits for a dyadic rational in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample using the Box-Muller
// transform. Two uniforms are consumed per call; no state is cached so the
// stream position is easy to reason about.
func (s *Source) NormFloat64() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	shuffle(s, p)
	return p
}

// PermInto overwrites p with a pseudo-random permutation of [0, len(p)). It
// draws exactly what Perm(len(p)) draws and yields the same order, without
// allocating; int32 entries keep a run of many permutations compact.
func (s *Source) PermInto(p []int32) { shuffle(s, p) }

// shuffle is Fisher-Yates on p = 0, 1, …, len(p)−1.
func shuffle[T int | int32](s *Source, p []T) {
	for i := range p {
		p[i] = T(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Fork returns a new Source derived from this one and the label, without
// disturbing determinism of the parent stream beyond one draw. Useful for
// giving each layer / crossbar / trial its own stream.
func (s *Source) Fork(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) // hash.Hash.Write is documented to never fail
	return &Source{state: s.Uint64() ^ h.Sum64()}
}
