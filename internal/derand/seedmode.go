package derand

import (
	"fmt"

	"congestds/internal/fixpoint"
	"congestds/internal/kwise"
	"congestds/internal/rounding"
)

// DerandomizeSharedSeed demonstrates the paper's exact Lemma 3.4 mechanism
// at small scale (see docs/ARCHITECTURE.md#substitutions, substitution 3):
// all coins of the instance
// are derived from ONE shared k-wise independent seed (Lemma 3.3), and the
// seed's bits are fixed one at a time by the method of conditional
// expectations, where each conditional expectation E[size | b_1..b_j] is
// computed exactly by enumerating all completions of the seed — the
// unbounded local computation the CONGEST model grants cluster leaders.
//
// The generator's seed must be at most maxSeedBits bits (default 20) to keep
// the exhaustive enumeration tractable. Returns the chosen seed and the
// outcome; the realized size is at most the expected size over a uniformly
// random seed (the supermartingale property of Lemma 3.4's claim).
func DerandomizeSharedSeed(inst *rounding.Instance, gen *kwise.Generator, maxSeedBits int) ([]uint64, *rounding.Outcome, error) {
	if maxSeedBits <= 0 {
		maxSeedBits = 20
	}
	if gen.SeedBits() > maxSeedBits {
		return nil, nil, fmt.Errorf("derand: seed has %d bits, limit %d", gen.SeedBits(), maxSeedBits)
	}
	if gen.N() < len(inst.X) {
		return nil, nil, fmt.Errorf("derand: generator indexes %d < %d sites", gen.N(), len(inst.X))
	}
	totalBits := gen.SeedBits()
	m := int(gen.FieldM())
	words := gen.SeedWords()

	// expectedSize computes E[size] over the uniform completion of the seed
	// bits after the first `fixed` bits are set per `prefix`.
	expectedSize := func(prefix uint64, fixed int) fixpoint.Value {
		free := totalBits - fixed
		count := uint64(1) << free
		var total fixpoint.Value
		ctx := inst.Ctx
		seed := make([]uint64, words)
		for completion := uint64(0); completion < count; completion++ {
			bits := prefix | completion<<fixed
			for w := 0; w < words; w++ {
				seed[w] = (bits >> (w * m)) & ((1 << m) - 1)
			}
			out := inst.Execute(func(j int) bool {
				return gen.Coin(seed, j, uint64(inst.P[j]))
			})
			total = ctx.Add(total, out.Size(ctx))
		}
		// Average: divide by the completion count (a power of two, exact).
		return total >> free
	}

	var prefix uint64
	for bit := 0; bit < totalBits; bit++ {
		e0 := expectedSize(prefix, bit+1)
		e1 := expectedSize(prefix|1<<bit, bit+1)
		if e1 < e0 {
			prefix |= 1 << bit
		}
	}
	seed := make([]uint64, words)
	for w := 0; w < words; w++ {
		seed[w] = (prefix >> (w * m)) & ((1 << m) - 1)
	}
	out := inst.Execute(func(j int) bool {
		return gen.Coin(seed, j, uint64(inst.P[j]))
	})
	return seed, out, nil
}
