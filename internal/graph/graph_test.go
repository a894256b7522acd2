package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if err := b.Add(0, 1); err != nil {
		t.Fatalf("Add(0,1): %v", err)
	}
	if err := b.Add(1, 0); err != nil { // duplicate, reversed
		t.Fatalf("Add(1,0): %v", err)
	}
	if err := b.Add(2, 3); err != nil {
		t.Fatalf("Add(2,3): %v", err)
	}
	g := b.Graph()
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 4, 2", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatalf("HasEdge results wrong")
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	for _, e := range [][2]int{{0, 0}, {-1, 1}, {0, 3}} {
		if err := b.Add(e[0], e[1]); err == nil {
			t.Errorf("Add(%d,%d) succeeded, want error", e[0], e[1])
		}
	}
}

func TestDefaultIDsDistinct(t *testing.T) {
	ids := DefaultIDs(10000)
	seen := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = struct{}{}
	}
}

func TestSetIDsValidation(t *testing.T) {
	b := NewBuilder(3)
	if err := b.SetIDs([]int64{1, 2}); err == nil {
		t.Error("short id slice accepted")
	}
	if err := b.SetIDs([]int64{1, 2, 2}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if err := b.SetIDs([]int64{5, 9, 1}); err != nil {
		t.Errorf("valid ids rejected: %v", err)
	}
}

func TestBFSAndDist(t *testing.T) {
	g := Path(5)
	dist, parent := g.BFS(0)
	for v := 0; v < 5; v++ {
		if dist[v] != v {
			t.Errorf("dist[%d]=%d, want %d", v, dist[v], v)
		}
	}
	if parent[0] != -1 || parent[3] != 2 {
		t.Errorf("parents wrong: %v", parent)
	}
	if d := g.Dist(0, 4); d != 4 {
		t.Errorf("Dist(0,4)=%d, want 4", d)
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g, err := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count=%d, want 3 (components %v)", count, comp)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Errorf("component labels wrong: %v", comp)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !Cycle(5).IsConnected() {
		t.Error("cycle reported disconnected")
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", Path(5), 4},
		{"cycle6", Cycle(6), 3},
		{"star7", Star(7), 2},
		{"complete4", Complete(4), 1},
		{"grid3x3", Grid(3, 3), 4},
		{"hypercube3", Hypercube(3), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Errorf("Diameter()=%d, want %d", got, tt.want)
			}
		})
	}
}

func TestClosedNeighborhoods(t *testing.T) {
	g := GNPConnected(40, 0.08, 7)
	rows := g.ClosedNeighborhoods()
	if len(rows) != g.N() {
		t.Fatalf("%d rows for %d nodes", len(rows), g.N())
	}
	for v, row := range rows {
		if want := g.InclusiveNeighbors(nil, v); !slices.Equal(row, want) {
			t.Fatalf("N[%d]=%v, want %v", v, row, want)
		}
		if cap(row) != len(row) {
			t.Fatalf("row %d not capped: len %d cap %d", v, len(row), cap(row))
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name       string
		g          *Graph
		n, m, maxD int
	}{
		{"grid2x3", Grid(2, 3), 6, 7, 3},
		{"torus3x3", Torus(3, 3), 9, 18, 4},
		{"star5", Star(5), 5, 4, 4},
		{"complete5", Complete(5), 5, 10, 4},
		{"tree-2-2", CompleteTree(2, 2), 7, 6, 3},
		{"hypercube4", Hypercube(4), 16, 32, 4},
		{"caterpillar", Caterpillar(3, 2), 9, 8, 4},
		{"path1", Path(1), 1, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m || tt.g.MaxDegree() != tt.maxD {
				t.Errorf("got (n=%d,m=%d,Δ=%d), want (%d,%d,%d)",
					tt.g.N(), tt.g.M(), tt.g.MaxDegree(), tt.n, tt.m, tt.maxD)
			}
		})
	}
}

func TestGNPDeterministic(t *testing.T) {
	a := GNP(50, 0.1, 42)
	b := GNP(50, 0.1, 42)
	c := GNP(50, 0.1, 43)
	if a.M() != b.M() {
		t.Error("same seed produced different graphs")
	}
	same := true
	a.Edges(func(u, v int) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	if !same {
		t.Error("same seed produced different edge sets")
	}
	if a.M() == c.M() {
		// Not impossible, but with 1225 candidate edges it would be a
		// miracle; treat as regression.
		diff := false
		a.Edges(func(u, v int) {
			if !c.HasEdge(u, v) {
				diff = true
			}
		})
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(100, 3, 1)
	if g.N() != 100 {
		t.Fatalf("n=%d", g.N())
	}
	if !g.IsConnected() {
		t.Error("BA graph should be connected")
	}
	// Each arriving node adds exactly 3 edges after the initial clique.
	if g.M() < 3*(100-4) {
		t.Errorf("m=%d too small", g.M())
	}
}

func TestUnitDiskConnected(t *testing.T) {
	g := UnitDiskConnected(80, 0.12, 3)
	if !g.IsConnected() {
		t.Error("UnitDiskConnected produced a disconnected graph")
	}
}

func TestNamedFamilies(t *testing.T) {
	for _, fam := range Families() {
		g, err := Named(fam, 30, 5)
		if err != nil {
			t.Errorf("Named(%q): %v", fam, err)
			continue
		}
		if g.N() == 0 {
			t.Errorf("Named(%q) produced empty graph", fam)
		}
		// A negative size is an error, never a panic inside a generator.
		if g, err := Named(fam, -5, 5); err == nil || !strings.Contains(err.Error(), "n = -5") {
			t.Errorf("Named(%q, -5) = (%v, %v), want an error naming n = -5", fam, g, err)
		}
	}
	if _, err := Named("nope", 10, 0); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestIORoundTrip(t *testing.T) {
	for _, g := range []*Graph{Path(0), Path(1), Cycle(5), GNP(30, 0.2, 9)} {
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		h, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip changed shape: got (%d,%d), want (%d,%d)",
				h.N(), h.M(), g.N(), g.M())
		}
		g.Edges(func(u, v int) {
			if !h.HasEdge(u, v) {
				t.Errorf("round trip lost edge {%d,%d}", u, v)
			}
		})
		for v := 0; v < g.N(); v++ {
			if g.ID(v) != h.ID(v) {
				t.Errorf("round trip changed ID of %d", v)
			}
		}
	}
}

func TestReadFromErrors(t *testing.T) {
	for _, in := range []string{"", "1", "2 1\n7 8\n", "2 1\n7 8\n0 0\n", "2 1\n7\n0 1\n"} {
		if _, err := ReadFrom(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("ReadFrom(%q) succeeded, want error", in)
		}
	}
}

// Property: adjacency symmetry and sortedness for random graphs.
func TestAdjacencyInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNP(25, 0.3, seed)
		for v := 0; v < g.N(); v++ {
			nbrs := g.Neighbors(v)
			for i := range nbrs {
				if i > 0 && nbrs[i-1] >= nbrs[i] {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(int(nbrs[i]), v) {
					return false // asymmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInclusiveNeighbors(t *testing.T) {
	g := Star(4)
	inc := g.InclusiveNeighbors(nil, 0)
	if len(inc) != 4 {
		t.Fatalf("|N(center)|=%d, want 4", len(inc))
	}
	inc = g.InclusiveNeighbors(nil, 1)
	if len(inc) != 2 {
		t.Fatalf("|N(leaf)|=%d, want 2", len(inc))
	}
}

// Every generator family must be a pure function of (family, n, seed):
// identical adjacency on repeated calls. Regression test for the
// preferential-attachment generator, which once leaked map iteration order
// into its target list.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, family := range Families() {
		a, err := Named(family, 60, 7)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		b, err := Named(family, 60, 7)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if a.N() != b.N() || a.M() != b.M() {
			t.Errorf("%s: sizes differ across calls: (%d,%d) vs (%d,%d)", family, a.N(), a.M(), b.N(), b.M())
			continue
		}
		for v := 0; v < a.N(); v++ {
			na, nb := a.Neighbors(v), b.Neighbors(v)
			if len(na) != len(nb) {
				t.Errorf("%s: node %d degree differs", family, v)
				break
			}
			for i := range na {
				if na[i] != nb[i] {
					t.Errorf("%s: node %d neighbour %d differs", family, v, i)
					break
				}
			}
		}
	}
}

func TestEccentricity(t *testing.T) {
	if got := Path(10).Eccentricity(0); got != 9 {
		t.Errorf("path end eccentricity = %d, want 9", got)
	}
	if got := Path(10).Eccentricity(5); got != 5 {
		t.Errorf("path middle eccentricity = %d, want 5", got)
	}
	if got := Star(8).Eccentricity(0); got != 1 {
		t.Errorf("star centre eccentricity = %d, want 1", got)
	}
	// Disconnected: eccentricity is within the component only.
	g, err := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Eccentricity(0); got != 2 {
		t.Errorf("component eccentricity = %d, want 2", got)
	}
	// 2·ecc+2 bounds the diameter from above on every small family.
	for _, g := range []*Graph{Cycle(9), Grid(4, 5), GNPConnected(30, 0.15, 3)} {
		if d, b := g.Diameter(), g.DiamBound(); d > b {
			t.Errorf("diameter %d exceeds 2·ecc(0)+2 = %d", d, b)
		}
	}
}

func TestEccentricityEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Eccentricity(0); got != 0 {
		t.Errorf("empty graph eccentricity = %d, want 0", got)
	}
}
