package decomp

import (
	"math"
	"testing"

	"congestds/internal/graph"
)

func TestBuildValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := Build(g, Params{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestDecompositionAcrossFamilies(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"path20-k2", graph.Path(20), 2},
		{"cycle17-k2", graph.Cycle(17), 2},
		{"grid6x6-k2", graph.Grid(6, 6), 2},
		{"gnp50-k2", graph.GNPConnected(50, 0.1, 7), 2},
		{"gnp40-k3", graph.GNPConnected(40, 0.12, 8), 3},
		{"star15-k2", graph.Star(15), 2},
		{"single-k2", graph.Path(1), 2},
		{"disconnected", mustFromEdges(t, 6, [][2]int{{0, 1}, {2, 3}}), 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			d, err := Build(tt.g, Params{K: tt.k})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(tt.g); err != nil {
				t.Fatal(err)
			}
			// Radius bound: log_{1+δ} n with δ=1 → log2 n.
			if bound := int(math.Log2(float64(tt.g.N()))) + 1; d.MaxRadius > bound {
				t.Errorf("radius %d exceeds log bound %d", d.MaxRadius, bound)
			}
			if d.ChargedRounds <= 0 {
				t.Error("no rounds charged")
			}
		})
	}
}

func mustFromEdges(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDecompositionDeterministic(t *testing.T) {
	g := graph.GNPConnected(60, 0.08, 5)
	a, err := Build(g, Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clusters) != len(b.Clusters) || a.NumColors != b.NumColors {
		t.Fatal("decomposition not deterministic")
	}
	for v := range a.Of {
		if a.Of[v] != b.Of[v] {
			t.Fatal("cluster assignment differs")
		}
	}
}

func TestCompleteGraphSingleCluster(t *testing.T) {
	g := graph.Complete(10)
	d, err := Build(g, Params{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) != 1 {
		t.Errorf("complete graph split into %d clusters", len(d.Clusters))
	}
	if d.NumColors != 1 {
		t.Errorf("colors=%d, want 1", d.NumColors)
	}
}

func TestSeparationIsRealObstruction(t *testing.T) {
	// On a long path with K=2, adjacent clusters must get different colors,
	// and at least 2 colors are needed unless there is a single cluster.
	g := graph.Path(40)
	d, err := Build(g, Params{K: 2}) // small balls: many clusters
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) > 1 && d.NumColors < 2 {
		t.Error("multiple touching clusters share one color")
	}
}
