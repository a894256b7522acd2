package kwise

import (
	"math/rand/v2"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 8); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(2, 0, 8); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(2, 4, 0); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := New(2, 4, 65); err == nil {
		t.Error("bits=65 accepted")
	}
	g, err := New(3, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 3 || g.N() != 100 || g.Bits() != 40 {
		t.Error("accessors wrong")
	}
}

func TestSeedGeometry(t *testing.T) {
	g, err := New(4, 1000, 40)
	if err != nil {
		t.Fatal(err)
	}
	m := g.FieldM() // 10 bits for 1000 points
	if m != 10 {
		t.Errorf("field m=%d, want 10", m)
	}
	wantChunks := 4 // ceil(40/10)
	if g.SeedWords() != 4*wantChunks {
		t.Errorf("SeedWords=%d, want %d", g.SeedWords(), 4*wantChunks)
	}
	if g.SeedBits() != 4*wantChunks*int(m) {
		t.Errorf("SeedBits=%d", g.SeedBits())
	}
}

// enumerateSeeds calls fn for every possible seed of g (small fields only).
func enumerateSeeds(g *Generator, fn func(seed []uint64)) {
	words := g.SeedWords()
	order := uint64(1) << g.FieldM()
	seed := make([]uint64, words)
	var rec func(i int)
	rec = func(i int) {
		if i == words {
			fn(seed)
			return
		}
		for v := uint64(0); v < order; v++ {
			seed[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// Exhaustive pairwise independence: with k=2 over GF(2^3), for every pair of
// indices the joint distribution of the two 3-bit values over all seeds must
// be exactly uniform.
func TestPairwiseIndependenceExhaustive(t *testing.T) {
	g, err := New(2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.FieldM() != 3 {
		t.Fatalf("m=%d, want 3", g.FieldM())
	}
	totalSeeds := 1 << (3 * 2) // order^words = 8^2
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			counts := make(map[[2]uint64]int)
			enumerateSeeds(g, func(seed []uint64) {
				counts[[2]uint64{g.Value(seed, i), g.Value(seed, j)}]++
			})
			want := totalSeeds / (8 * 8)
			if len(counts) != 64 {
				t.Fatalf("pair (%d,%d): %d distinct outcomes, want 64", i, j, len(counts))
			}
			for kv, c := range counts {
				if c != want {
					t.Fatalf("pair (%d,%d): outcome %v count=%d, want %d", i, j, kv, c, want)
				}
			}
		}
	}
}

// Exhaustive 3-wise independence with k=3 over GF(2^2), n=4, 2-bit values.
func TestThreeWiseIndependenceExhaustive(t *testing.T) {
	g, err := New(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.FieldM() != 2 {
		t.Fatalf("m=%d, want 2", g.FieldM())
	}
	totalSeeds := 1 << (2 * 3) // 4^3
	idx := [][3]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for _, tr := range idx {
		counts := make(map[[3]uint64]int)
		enumerateSeeds(g, func(seed []uint64) {
			counts[[3]uint64{g.Value(seed, tr[0]), g.Value(seed, tr[1]), g.Value(seed, tr[2])}]++
		})
		want := totalSeeds / (4 * 4 * 4)
		if len(counts) != 64 {
			t.Fatalf("triple %v: %d outcomes, want 64", tr, len(counts))
		}
		for kv, c := range counts {
			if c != want {
				t.Fatalf("triple %v: outcome %v count=%d, want %d", tr, kv, c, want)
			}
		}
	}
}

// Coin marginal exactness: Pr[Coin(i, T)] = T/2^S exactly, verified by
// exhaustive seed enumeration.
func TestCoinExactMarginal(t *testing.T) {
	g, err := New(2, 4, 4) // 4-bit values from GF(2^2): 2 chunks of 2 bits
	if err != nil {
		t.Fatal(err)
	}
	totalSeeds := 1
	for i := 0; i < g.SeedWords(); i++ {
		totalSeeds *= int(1 << g.FieldM())
	}
	for _, threshold := range []uint64{0, 1, 5, 8, 16} {
		for i := 0; i < g.N(); i++ {
			hits := 0
			enumerateSeeds(g, func(seed []uint64) {
				if g.Coin(seed, i, threshold) {
					hits++
				}
			})
			want := totalSeeds * int(threshold) / 16
			if hits != want {
				t.Fatalf("threshold=%d index=%d: hits=%d, want %d", threshold, i, hits, want)
			}
		}
	}
}

// Multi-chunk concatenation stays uniform per value.
func TestMultiChunkUniform(t *testing.T) {
	g, err := New(2, 4, 6) // GF(2^2): 3 chunks of 2 bits
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 64)
	enumerateSeeds(g, func(seed []uint64) {
		counts[g.Value(seed, 1)]++
	})
	want := counts[0]
	for v, c := range counts {
		if c != want {
			t.Fatalf("value %d: count %d, want %d (not uniform)", v, c, want)
		}
	}
}

func TestValueDeterministic(t *testing.T) {
	g, err := New(4, 50, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 2))
	seed := g.RandomSeed(r)
	for i := 0; i < g.N(); i++ {
		if g.Value(seed, i) != g.Value(seed, i) {
			t.Fatal("Value not deterministic")
		}
	}
}

func TestValuePanicsOnBadInput(t *testing.T) {
	g, _ := New(2, 4, 4)
	for _, fn := range []func(){
		func() { g.Value(make([]uint64, g.SeedWords()), -1) },
		func() { g.Value(make([]uint64, g.SeedWords()), 4) },
		func() { g.Value(make([]uint64, 1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Statistical sanity at realistic sizes: mean of values close to uniform
// mean over random seeds (not a proof, a smoke test for the wide field).
func TestLargeGeneratorStatistics(t *testing.T) {
	g, err := New(8, 512, 40)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(7, 9))
	var sum float64
	const trials = 200
	for tr := 0; tr < trials; tr++ {
		seed := g.RandomSeed(r)
		for i := 0; i < 64; i++ {
			sum += float64(g.Value(seed, i))
		}
	}
	mean := sum / (trials * 64)
	uniformMean := float64(uint64(1)<<40) / 2
	if mean < 0.9*uniformMean || mean > 1.1*uniformMean {
		t.Errorf("mean %.3g too far from uniform mean %.3g", mean, uniformMean)
	}
}
