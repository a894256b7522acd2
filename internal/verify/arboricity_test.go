package verify

import (
	"slices"
	"testing"

	"congestds/internal/graph"
)

// TestDegeneracyKnownGraphs checks the peel against graphs whose degeneracy
// is known in closed form.
func TestDegeneracyKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"single", graph.Path(1), 0},
		{"path", graph.Path(10), 1},
		{"tree", graph.CompleteTree(3, 3), 1},
		{"cycle", graph.Cycle(9), 2},
		{"complete6", graph.Complete(6), 5},
		{"star", graph.Star(20), 1},
		{"grid", graph.Grid(6, 6), 2},
		{"torus", graph.Torus(5, 5), 4},
		{"hypercube4", graph.Hypercube(4), 4},
	}
	for _, c := range cases {
		if got := Degeneracy(c.g); got != c.want {
			t.Errorf("%s: degeneracy=%d, want %d", c.name, got, c.want)
		}
	}
}

// TestDegeneracyOrderProperty: the returned order must be a witness — every
// node has at most k neighbours appearing later in the order.
func TestDegeneracyOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := graph.GNP(80, 0.08, seed)
		k, order := DegeneracyOrder(g)
		rank := make([]int, g.N())
		for i, v := range order {
			rank[v] = i
		}
		for _, v := range order {
			later := 0
			for _, u := range g.Neighbors(v) {
				if rank[u] > rank[v] {
					later++
				}
			}
			if later > k {
				t.Fatalf("seed %d: node %d has %d later neighbours > k=%d", seed, v, later, k)
			}
		}
	}
}

// TestDegeneracyBoundsGenerators: the measured degeneracy of the
// constructed bounded-arboricity families must respect their witnesses.
func TestDegeneracyBoundsGenerators(t *testing.T) {
	for _, alpha := range []int{1, 2, 3, 4} {
		if d := Degeneracy(graph.UnionForests(300, alpha, 3)); d > 2*alpha-1 {
			t.Errorf("UnionForests(α=%d): degeneracy %d > 2α-1", alpha, d)
		}
		if d := Degeneracy(graph.RandomOutDAG(300, alpha, 3)); d > 2*alpha {
			t.Errorf("RandomOutDAG(α=%d): degeneracy %d > 2α", alpha, d)
		}
	}
	if d := Degeneracy(graph.GridDiagonals(14, 14)); d > 5 {
		t.Errorf("GridDiagonals: degeneracy %d > 5 (planar)", d)
	}
}

// TestArboricityBounds pins the sandwich lo ≤ α ≤ hi on graphs with known
// arboricity: trees have α=1, K6 has α=3, a union of 3 spanning trees ≤ 3.
func TestArboricityBounds(t *testing.T) {
	check := func(name string, g *graph.Graph, alpha int) {
		lo, hi := ArboricityBounds(g)
		if lo > alpha || hi < alpha {
			t.Errorf("%s: bounds [%d,%d] exclude true α=%d", name, lo, hi, alpha)
		}
	}
	check("tree", graph.CompleteTree(2, 5), 1)
	check("complete6", graph.Complete(6), 3)
	check("cycle", graph.Cycle(12), 2)
	lo, hi := ArboricityBounds(graph.UnionForests(200, 3, 9))
	if hi < lo || lo < 1 {
		t.Fatalf("UnionForests bounds [%d,%d] malformed", lo, hi)
	}
	if lo > 3 {
		t.Errorf("UnionForests(α=3): lower bound %d > 3 contradicts the witness", lo)
	}
}

// TestCertifyArb drives the certificate end to end: a full vertex set
// dominates but may blow the O(α) bound on dense graphs; a greedy-quality
// set on a star must certify at ratio 1.
func TestCertifyArb(t *testing.T) {
	star := graph.Star(30)
	c := CertifyArb(star, []int{0}, 0.5)
	if !c.OK || c.Ratio != 1 || c.Degeneracy != 1 {
		t.Errorf("star center: %+v, want ok ratio=1 degeneracy=1", c)
	}
	// Non-dominating set must fail regardless of ratio.
	c = CertifyArb(star, []int{1}, 0.5)
	if c.OK {
		t.Error("non-dominating set certified")
	}
	// All-vertices on a path: ratio ≈ 3 ≤ (2.5)·3 = 7.5 ⇒ ok.
	p := graph.Path(30)
	all := make([]int, p.N())
	for v := range all {
		all[v] = v
	}
	c = CertifyArb(p, all, 0.5)
	if !c.OK {
		t.Errorf("path all-vertices: %+v, want ok (ratio %.2f ≤ claim %.1f)", c, c.Ratio, c.ClaimBound)
	}
}

// TestRoundBoundArb: the claimed round bound must grow with Δ and 1/ε only.
func TestRoundBoundArb(t *testing.T) {
	if a, b := RoundBoundArb(3, 0.5), RoundBoundArb(3000, 0.5); a >= b {
		t.Errorf("bound not increasing in Δ: %d vs %d", a, b)
	}
	if a, b := RoundBoundArb(100, 0.5), RoundBoundArb(100, 0.1); a >= b {
		t.Errorf("bound not increasing in 1/ε: %d vs %d", a, b)
	}
	if RoundBoundArb(0, 0.5) < 4 {
		t.Error("degenerate Δ must still allow at least one phase")
	}
}

// degeneracyReference is the peel as it stood before the int32 rewrite: a
// removed set, int arrays and an order built even when only k is wanted.
func degeneracyReference(g *graph.Graph) (int, []int) {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	bucketStart := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bucketStart[deg[v]+1]++
	}
	for d := 1; d < len(bucketStart); d++ {
		bucketStart[d] += bucketStart[d-1]
	}
	vert := make([]int, n)
	pos := make([]int, n)
	fill := append([]int(nil), bucketStart[:maxDeg+1]...)
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}
	order := make([]int, 0, n)
	removed := make([]bool, n)
	k := 0
	for i := 0; i < n; i++ {
		v := vert[i]
		if deg[v] > k {
			k = deg[v]
		}
		removed[v] = true
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if removed[u] || deg[u] <= deg[v] {
				continue
			}
			du := deg[u]
			first := bucketStart[du]
			fv := vert[first]
			if fv != u {
				vert[first], vert[pos[u]] = u, fv
				pos[fv], pos[u] = pos[u], first
			}
			bucketStart[du]++
			deg[u]--
		}
	}
	return k, order
}

// TestDegeneracyMatchesReference pins the peel to its earlier form on
// every named family: the same k from Degeneracy and DegeneracyOrder, and
// the same order.
func TestDegeneracyMatchesReference(t *testing.T) {
	for _, fam := range graph.Families() {
		for _, n := range []int{1, 17, 300} {
			for seed := uint64(1); seed <= 2; seed++ {
				g, err := graph.Named(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, wantOrder := degeneracyReference(g)
				if got := Degeneracy(g); got != want {
					t.Errorf("%s n=%d seed=%d: Degeneracy=%d, reference %d", fam, n, seed, got, want)
				}
				k, order := DegeneracyOrder(g)
				if k != want || !slices.Equal(order, wantOrder) {
					t.Errorf("%s n=%d seed=%d: DegeneracyOrder k=%d, reference %d (orders equal: %v)",
						fam, n, seed, k, want, slices.Equal(order, wantOrder))
				}
			}
		}
	}
}

// TestDegeneracyOrderNotIndexOrder pins the documented tie-breaking: on the
// path 0-1-2-3, node 3 pops before node 1, so ties do not go to the
// smallest index.
func TestDegeneracyOrderNotIndexOrder(t *testing.T) {
	_, order := DegeneracyOrder(graph.Path(4))
	if want := []int{0, 3, 1, 2}; !slices.Equal(order, want) {
		t.Errorf("path order %v, want %v", order, want)
	}
}

// BenchmarkCertifyArb times the O(α) certificate (degeneracy peel, dual
// packing, domination check) of a maximal independent set on a 2·10⁵-node
// union of forests, and reports ns per edge.
func BenchmarkCertifyArb(b *testing.B) {
	g := graph.UnionForests(200_000, graph.DefaultArbAlpha, 7)
	// A maximal independent set, taken greedily in index order, dominates.
	var set []int
	taken := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if !slices.ContainsFunc(g.Neighbors(v), func(u int32) bool { return taken[u] }) {
			taken[v] = true
			set = append(set, v)
		}
	}
	for b.Loop() {
		if c := CertifyArb(g, set, 0.5); !c.OK {
			b.Fatal(c)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
}
