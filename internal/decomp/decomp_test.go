package decomp

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"congestds/internal/graph"
)

func TestDecompositionAcrossFamilies(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path20-k2", graph.Path(20)},
		{"cycle17-k2", graph.Cycle(17)},
		{"grid6x6-k2", graph.Grid(6, 6)},
		{"gnp50-k2", graph.GNPConnected(50, 0.1, 7)},
		{"star15-k2", graph.Star(15)},
		{"single-k2", graph.Path(1)},
		{"disconnected", mustFromEdges(t, 6, [][2]int{{0, 1}, {2, 3}})},
	} {
		t.Run(tt.name, func(t *testing.T) {
			d := Build(tt.g)
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
			byID := func(a, b int) int { return cmp.Compare(tt.g.ID(a), tt.g.ID(b)) }
			for _, c := range d.Clusters {
				if !slices.IsSortedFunc(c.Nodes, byID) {
					t.Errorf("cluster of leader %d: members not in ID order", c.Leader)
				}
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
	a, b := Build(g), Build(g)
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
	d := Build(g)
	if len(d.Clusters) != 1 {
		t.Errorf("complete graph split into %d clusters", len(d.Clusters))
	}
	if d.NumColors != 1 {
		t.Errorf("colors=%d, want 1", d.NumColors)
	}
}

func TestSeparationIsRealObstruction(t *testing.T) {
	// On a long path, adjacent clusters must get different colors, and at
	// least 2 colors are needed unless there is a single cluster.
	g := graph.Path(40)
	d := Build(g) // small balls: many clusters
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters) > 1 && d.NumColors < 2 {
		t.Error("multiple touching clusters share one color")
	}
}

// referenceColors is the map-based cluster coloring Build used before it
// shared coloring.Distance2Bipartite: it links clusters at graph distance
// ≤ k by a k-limited BFS from every node, then colors the cluster graph
// greedily in leader-ID order. It returns the colors by cluster index, the
// color count and the charged coloring rounds, leaving d untouched.
func referenceColors(g *graph.Graph, d *Decomposition) (colors []int, numColors, rounds int) {
	nc := len(d.Clusters)
	adj := make([]map[int]struct{}, nc)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for s := 0; s < g.N(); s++ {
		cs := d.Of[s]
		queue = append(queue[:0], s)
		dist[s] = 0
		visited := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] == k {
				continue
			}
			for _, wn := range g.Neighbors(v) {
				w := int(wn)
				if dist[w] >= 0 {
					continue
				}
				dist[w] = dist[v] + 1
				visited = append(visited, w)
				queue = append(queue, w)
				if cw := d.Of[w]; cw != cs {
					adj[cs][cw] = struct{}{}
					adj[cw][cs] = struct{}{}
				}
			}
		}
		for _, w := range visited {
			dist[w] = -1
		}
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.ID(d.Clusters[order[a]].Leader) < g.ID(d.Clusters[order[b]].Leader)
	})
	colors = make([]int, nc)
	for i := range colors {
		colors[i] = -1
	}
	depthOf := make([]int, nc)
	maxDepth := 0
	for _, ci := range order {
		used := make(map[int]struct{})
		dep := 0
		for cj := range adj[ci] {
			if g.ID(d.Clusters[cj].Leader) < g.ID(d.Clusters[ci].Leader) {
				if col := colors[cj]; col >= 0 {
					used[col] = struct{}{}
				}
				dep = max(dep, depthOf[cj])
			}
		}
		c := 0
		for {
			if _, taken := used[c]; !taken {
				break
			}
			c++
		}
		colors[ci] = c
		depthOf[ci] = dep + 1
		maxDepth = max(maxDepth, dep+1)
		numColors = max(numColors, c+1)
	}
	return colors, numColors, maxDepth * (k + 2*d.MaxRadius + 1)
}

// TestClusterColoringMatchesReference pins the shared-greedy cluster
// coloring to the map-based reference: same colors, color count and
// charged rounds, and a valid decomposition, on graphs with many small
// clusters, large clusters, high degree and several components. Each graph
// is checked with Build's clusters and with one-node clusters.
func TestClusterColoringMatchesReference(t *testing.T) {
	named := func(family string, n int, seed uint64) *graph.Graph {
		g, err := graph.Named(family, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp1500-s4", named("gnp", 1500, 4)},
		{"ba2000-s4", named("ba", 2000, 4)},
		{"grid30x30", graph.Grid(30, 30)},
		{"torus40x40", graph.Torus(40, 40)},
		{"uforest5000", graph.UnionForests(5000, 3, 1)},
		{"star30", graph.Star(30)},
		{"hypercube7", graph.Hypercube(7)},
		{"gnp300-disconnected", graph.GNP(300, 0.01, 3)},
	} {
		for _, dt := range []struct {
			name string
			d    *Decomposition
		}{{"build", Build(tt.g)}, {"singletons", singletons(tt.g)}} {
			t.Run(tt.name+"/"+dt.name, func(t *testing.T) {
				d := dt.d
				colors, numColors, rounds := referenceColors(tt.g, d)
				for ci, c := range d.Clusters {
					if c.Color != colors[ci] {
						t.Fatalf("cluster %d: color %d, reference %d", ci, c.Color, colors[ci])
					}
				}
				if d.NumColors != numColors {
					t.Errorf("NumColors = %d, reference %d", d.NumColors, numColors)
				}
				if got, want := d.ChargedRounds-carveRounds(d), rounds; got != want {
					t.Errorf("coloring rounds = %d, reference %d", got, want)
				}
				if err := d.Validate(tt.g); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// carveRounds is the ball-carving share of d.ChargedRounds.
func carveRounds(d *Decomposition) int {
	r := 0
	for _, c := range d.Clusters {
		r += 2*c.Radius + 2
	}
	return r
}

// singletons is the partition of g into one-node clusters, colored by
// colorClusters, which makes its coloring a G² coloring. Build never makes
// two adjacent one-node clusters (carving the first would absorb the
// other), so only here does an edge between clusters have no cluster-mate
// at either end: the case in which N[w] and the open N(w) differ.
func singletons(g *graph.Graph) *Decomposition {
	n := g.N()
	d := &Decomposition{Of: make([]int, n), Parent: make([]int, n)}
	for v := range n {
		d.Of[v], d.Parent[v] = v, -1
		d.Clusters = append(d.Clusters, &Cluster{Leader: v, Nodes: []int{v}})
	}
	d.ChargedRounds = carveRounds(d) + d.colorClusters(g)
	return d
}
