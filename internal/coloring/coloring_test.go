package coloring

import (
	"reflect"
	"testing"

	"congestds/internal/graph"
)

// closedNeighbourhoodColoring colors G² as the distance-two coloring of the
// closed neighbourhoods N[v] with every node participating.
func closedNeighbourhoodColoring(g *graph.Graph) *Result {
	all := make([]bool, g.N())
	for v := range all {
		all[v] = true
	}
	return Distance2Bipartite(g.N(), g.ClosedNeighborhoods(), all, g.IDs())
}

// TestGraphColoringProperAndBounded: the closed-neighbourhood coloring is a
// proper coloring of G² (nodes at distance 1 or 2 differ) with at most
// Δ(G²)+1 colors, the greedy bound.
func TestGraphColoringProperAndBounded(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path10", graph.Path(10)},
		{"cycle7", graph.Cycle(7)},
		{"complete6", graph.Complete(6)},
		{"star9", graph.Star(9)},
		{"gnp", graph.GNPConnected(50, 0.15, 3)},
		{"grid", graph.Grid(6, 6)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			res := closedNeighbourhoodColoring(tt.g)
			maxDeg2 := 0
			for v := 0; v < tt.g.N(); v++ {
				dist, _ := tt.g.BFS(v)
				deg2 := 0
				for u, d := range dist {
					if d < 1 || d > 2 {
						continue
					}
					deg2++
					if res.Colors[u] == res.Colors[v] {
						t.Fatalf("nodes %d and %d at distance %d share color %d", u, v, d, res.Colors[v])
					}
				}
				maxDeg2 = max(maxDeg2, deg2)
			}
			if res.NumColors > maxDeg2+1 {
				t.Errorf("colors=%d exceeds Δ(G²)+1=%d", res.NumColors, maxDeg2+1)
			}
			if res.Rounds < 1 && tt.g.N() > 0 {
				t.Error("no rounds charged")
			}
		})
	}
}

func TestGraphColoringDeterministic(t *testing.T) {
	g := graph.GNPConnected(40, 0.2, 9)
	a, b := closedNeighbourhoodColoring(g), closedNeighbourhoodColoring(g)
	for v := range a.Colors {
		if a.Colors[v] != b.Colors[v] {
			t.Fatal("coloring not deterministic")
		}
	}
	if a.NumColors != b.NumColors || a.Rounds != b.Rounds {
		t.Fatal("palette or rounds not deterministic")
	}
}

// Distance2Bipartite must not regress toward per-site maps: its allocation
// count is a small constant independent of the instance size.
func TestDistance2BipartiteAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		g := graph.GridDiagonals(n/10, 10)
		members := g.ClosedNeighborhoods()
		all := make([]bool, g.N())
		for v := range all {
			all[v] = true
		}
		return testing.AllocsPerRun(3, func() {
			Distance2Bipartite(g.N(), members, all, g.IDs())
		})
	}
	small, large := allocs(500), allocs(5000)
	if small != large || large > 8 {
		t.Errorf("allocs/op: n=500 %.0f, n=5000 %.0f; want equal and ≤ 8", small, large)
	}
}

func TestDistance2Bipartite(t *testing.T) {
	// Constraint structure: 3 constraints over 5 sites.
	members := [][]int32{{0, 1, 2}, {2, 3}, {3, 4}}
	participating := []bool{true, true, true, true, true}
	ids := []int64{5, 4, 3, 2, 1}
	res := Distance2Bipartite(5, members, participating, ids)
	if ok, pair := Validate(res, members, participating); !ok {
		t.Fatalf("improper: %v", pair)
	}
	// Sites 0,1,2 share a constraint: three distinct colors among them.
	if res.Colors[0] == res.Colors[1] || res.Colors[1] == res.Colors[2] || res.Colors[0] == res.Colors[2] {
		t.Error("conflicting sites share a color")
	}
}

func TestDistance2SkipsNonParticipating(t *testing.T) {
	members := [][]int32{{0, 1, 2}}
	participating := []bool{true, false, true}
	ids := []int64{1, 2, 3}
	res := Distance2Bipartite(3, members, participating, ids)
	if res.Colors[1] != -1 {
		t.Error("non-participating site colored")
	}
	if res.Colors[0] == res.Colors[2] {
		t.Error("conflict not resolved")
	}
	if ok, _ := Validate(res, members, participating); !ok {
		t.Error("validation failed")
	}
}

// TestClasses checks the color-class walk: classes in color order, sites
// ascending within a class, uncolored sites left out.
func TestClasses(t *testing.T) {
	res := &Result{Colors: []int{1, -1, 0, 1, 0, -1, 2}, NumColors: 3}
	want := [][]int{{2, 4}, {0, 3}, {6}}
	if got := res.Classes(); !reflect.DeepEqual(got, want) {
		t.Errorf("Classes() = %v, want %v", got, want)
	}
}

// Palette bound of Lemma 3.12: with left degree ≤ ΔL and right degree ≤ ΔR,
// the greedy distance-2 coloring uses at most ΔL·ΔR colors.
func TestDistance2PaletteBound(t *testing.T) {
	// Random bipartite-ish constraint structure.
	g := graph.GNPConnected(40, 0.12, 4)
	members := g.ClosedNeighborhoods()
	participating := make([]bool, g.N())
	for v := range participating {
		participating[v] = true
	}
	res := Distance2Bipartite(g.N(), members, participating, g.IDs())
	if ok, pair := Validate(res, members, participating); !ok {
		t.Fatalf("improper: %v", pair)
	}
	dl := g.MaxDegree() + 1 // constraint size ≤ Δ+1
	dr := g.MaxDegree() + 1 // memberships per site ≤ Δ+1
	if res.NumColors > dl*dr {
		t.Errorf("colors=%d exceeds ΔL·ΔR=%d", res.NumColors, dl*dr)
	}
}

func TestValidateDetectsConflicts(t *testing.T) {
	members := [][]int32{{0, 1}}
	res := &Result{Colors: []int{0, 0}, NumColors: 1}
	if ok, pair := Validate(res, members, []bool{true, true}); ok || pair != [2]int{0, 1} {
		t.Error("conflict not detected")
	}
}
