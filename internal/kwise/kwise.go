// Package kwise implements Lemma 3.3 of the paper (after [AS04]): from a
// random seed of O(k·log²N) bits one can deterministically extract N biased
// coins with transmittable probabilities p_1..p_N that are k-wise
// independent.
//
// Construction: a uniformly random polynomial P of degree ≤ k-1 over
// GF(2^m), evaluated at N distinct points, yields N field elements that are
// k-wise independent and uniform. Truncating each to w ≤ m bits keeps both
// properties. Concatenating chunks from independent polynomials widens
// values to S bits. A biased coin with probability p (a multiple of 2^-S)
// is Value(i) < p·2^S, which has exactly probability p.
package kwise

import (
	"fmt"
	"math/rand/v2"

	"congestds/internal/gf2"
)

// Generator derives S-bit k-wise independent uniform values for indices
// 0..N-1 from a seed. Immutable after construction; safe for concurrent use.
type Generator struct {
	field  *gf2.Field
	k      int
	n      int
	bits   uint   // S: output bits per value
	widths []uint // chunk widths, sum = bits, each ≤ field.M()
}

// New returns a Generator for n values with independence k and the given
// output width in bits (the fixpoint scale S).
func New(k, n int, bitsOut uint) (*Generator, error) {
	if k < 1 {
		return nil, fmt.Errorf("kwise: independence k=%d < 1", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("kwise: n=%d < 1", n)
	}
	if bitsOut < 1 || bitsOut > 64 {
		return nil, fmt.Errorf("kwise: bits=%d out of range [1,64]", bitsOut)
	}
	// Field must have at least n distinct evaluation points. Small fields
	// are allowed (tests enumerate seeds exhaustively); values are widened
	// to S bits with multiple chunks.
	m := uint(1)
	for (uint64(1) << m) < uint64(n) {
		m++
	}
	if m > 31 {
		return nil, fmt.Errorf("kwise: n=%d needs field larger than GF(2^31)", n)
	}
	f, err := gf2.New(m)
	if err != nil {
		return nil, err
	}
	var widths []uint
	remaining := bitsOut
	for remaining > 0 {
		w := remaining
		if w > m {
			w = m
		}
		widths = append(widths, w)
		remaining -= w
	}
	return &Generator{field: f, k: k, n: n, bits: bitsOut, widths: widths}, nil
}

// K returns the independence parameter.
func (g *Generator) K() int { return g.k }

// N returns the number of values.
func (g *Generator) N() int { return g.n }

// Bits returns the output width S.
func (g *Generator) Bits() uint { return g.bits }

// FieldM returns the extension degree of the underlying field.
func (g *Generator) FieldM() uint { return g.field.M() }

// SeedWords returns the seed length in uint64 words: one field element per
// coefficient, k coefficients per chunk.
func (g *Generator) SeedWords() int { return g.k * len(g.widths) }

// SeedBits returns the true entropy of the seed in bits (k·m per chunk),
// the quantity the paper's Lemma 3.3 calls K = O(k·log²N).
func (g *Generator) SeedBits() int { return g.k * len(g.widths) * int(g.field.M()) }

// RandomSeed draws a seed from r (used by randomized baselines and tests;
// the deterministic algorithms never call it).
func (g *Generator) RandomSeed(r *rand.Rand) []uint64 {
	seed := make([]uint64, g.SeedWords())
	for i := range seed {
		seed[i] = r.Uint64() & (g.field.Order() - 1)
	}
	return seed
}

// Value returns the S-bit value for index i under the given seed. The seed
// must have length SeedWords() with every word < 2^m.
func (g *Generator) Value(seed []uint64, i int) uint64 {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("kwise: index %d out of range [0,%d)", i, g.n))
	}
	if len(seed) != g.SeedWords() {
		panic(fmt.Sprintf("kwise: seed has %d words, want %d", len(seed), g.SeedWords()))
	}
	var out uint64
	point := uint64(i)
	for c, w := range g.widths {
		coeffs := seed[c*g.k : (c+1)*g.k]
		y := g.field.Eval(coeffs, point)
		out = out<<w | (y & ((1 << w) - 1))
	}
	return out
}

// Coin returns the biased coin for index i: true with probability
// threshold/2^S (for threshold ≤ 2^S), exactly as Lemma 3.3 requires for
// transmittable probabilities.
func (g *Generator) Coin(seed []uint64, i int, threshold uint64) bool {
	return g.Value(seed, i) < threshold
}
