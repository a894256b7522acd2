package cds

import (
	"slices"
	"testing"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mcds"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

func TestSolveRejectsDisconnected(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, mds.Params{}); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	res, err := Solve(graph.Path(0), mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 0 {
		t.Error("empty graph should have empty CDS")
	}
	res, err = Solve(graph.Path(1), mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 1 {
		t.Errorf("single node CDS size %d, want 1", len(res.CDS))
	}
}

func TestCDSAcrossFamilies(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path20", graph.Path(20)},
		{"cycle16", graph.Cycle(16)},
		{"star14", graph.Star(14)},
		{"grid5x5", graph.Grid(5, 5)},
		{"gnp50", graph.GNPConnected(50, 0.1, 3)},
		{"caterpillar", graph.Caterpillar(6, 3)},
		{"tree", graph.CompleteTree(2, 4)},
		{"disk", graph.UnitDiskConnected(60, 0.25, 4)},
	}
	for _, tt := range graphs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, mds.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
				t.Fatalf("invalid CDS: %v", err)
			}
			// Section 4 size bound: |CDS| ≤ 3|S| (we add ≤ 2 inner nodes per
			// used G_S edge, with ≤ |S|−1 edges used).
			if len(res.CDS) > 3*len(res.DS) {
				t.Errorf("|CDS|=%d exceeds 3|DS|=%d", len(res.CDS), 3*len(res.DS))
			}
			if res.Ledger.Metrics().TotalRounds() <= 0 {
				t.Error("no rounds charged")
			}
		})
	}
}

func TestCDSWithDecompositionEngine(t *testing.T) {
	g := graph.GNPConnected(40, 0.12, 9)
	res, err := Solve(g, mds.Params{Engine: mds.EngineDecomposition})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		t.Fatal(err)
	}
}

// Theorem 1.4 bound (against exact MDS optimum, since OPT_CDS ≥ OPT_DS):
// |CDS| ≤ 3·(1+ε)(1+ln(Δ+1))·OPT_DS on small graphs.
func TestCDSApproximationBound(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path12", graph.Path(12)},
		{"cycle13", graph.Cycle(13)},
		{"grid4x4", graph.Grid(4, 4)},
		{"gnp22", graph.GNPConnected(22, 0.2, 11)},
	}
	for _, tt := range graphs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, mds.Params{Eps: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			opt := len(baseline.Exact(tt.g))
			if float64(len(res.CDS)) > res.Bound*float64(opt)+1e-9 {
				t.Errorf("|CDS|=%d exceeds bound %.2f × OPT %d", len(res.CDS), res.Bound, opt)
			}
		})
	}
}

// A set that leaves a node undominated, or holds a member outside [0, n)
// beside members that do dominate, is an error, never a panic.
func TestExtendRejectsNonDominating(t *testing.T) {
	g := graph.Path(6)
	for _, ds := range [][]int{{0}, {1, 4, -1}, {1, 4, 6}} {
		if _, err := Extend(g, ds, nil); err == nil {
			t.Errorf("Extend(%v) accepted", ds)
		}
	}
}

func TestExtendKeepsDSMembers(t *testing.T) {
	g := graph.Cycle(15)
	ds := baseline.Greedy(g)
	res, err := Extend(g, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[int]bool)
	for _, v := range res.CDS {
		in[v] = true
	}
	for _, v := range ds {
		if !in[v] {
			t.Errorf("DS member %d missing from CDS", v)
		}
	}
}

func TestCDSDeterministic(t *testing.T) {
	g := graph.GNPConnected(36, 0.15, 5)
	a, err := Solve(g, mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CDS) != len(b.CDS) {
		t.Fatal("non-deterministic CDS size")
	}
	for i := range a.CDS {
		if a.CDS[i] != b.CDS[i] {
			t.Fatal("non-deterministic CDS")
		}
	}
}

// Claim 4.1: G_S is connected iff G is connected — indirectly verified by
// connectClusters succeeding on every connected family above; here check a
// long path explicitly, where G_S connectivity relies on distance-3 edges.
func TestGSConnectivityOnPath(t *testing.T) {
	g := graph.Path(30)
	res, err := Solve(g, mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		t.Fatal(err)
	}
}

func TestRulingSetSeparation(t *testing.T) {
	g := graph.Path(40)
	ds := baseline.Greedy(g)
	res, err := Extend(g, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RulingSet) < 2 {
		t.Fatalf("ruling set %v: want several centres on a long path", res.RulingSet)
	}
	// Centres are pairwise at G_S distance ≥ alpha ≥ 2, so no two are G_S
	// neighbours: verify pairwise G-distance > 3 (one G_S hop).
	for i := 0; i < len(res.RulingSet); i++ {
		for j := i + 1; j < len(res.RulingSet); j++ {
			if d := g.Dist(res.RulingSet[i], res.RulingSet[j]); d <= 3 {
				t.Errorf("centres %d,%d at G-distance %d (G_S neighbours)",
					res.RulingSet[i], res.RulingSet[j], d)
			}
		}
	}
}

// The two connectors over one dominating set: mcds's native connector
// (Ghaffari's BFS-orientation connect phase, executed as messages) and
// Extend's §4 construction applied to mcds's own threshold-peel set must
// each keep every DS member and add at most two connectors per dominator
// plus the root.
func TestNativeConnectorSizeAndMembers(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path30", graph.Path(30)},
		{"grid6x6", graph.Grid(6, 6)},
		{"gnp50", graph.GNPConnected(50, 0.08, 13)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			res, err := mcds.Solve(tt.g, mcds.Params{Run: congest.Run{Sim: congest.EngineStepped}})
			if err != nil {
				t.Fatal(err)
			}
			ext, err := Extend(tt.g, res.DS, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				form string
				cds  []int
			}{{"native", res.CDS}, {"§4", ext.CDS}} {
				if len(c.cds) > 3*len(res.DS)+1 {
					t.Errorf("%s: |CDS|=%d exceeds 3|DS|+1=%d", c.form, len(c.cds), 3*len(res.DS)+1)
				}
				for _, v := range res.DS {
					if _, ok := slices.BinarySearch(c.cds, v); !ok {
						t.Errorf("%s: DS member %d missing from CDS", c.form, v)
					}
				}
			}
		})
	}
}
