// Package decomp implements strong-diameter k-hop network decompositions
// (Definitions 3.1 and 3.2 of the paper): a partition of the nodes into
// connected clusters of small diameter, each with a leader and a spanning
// tree, together with a coloring of the clusters in which same-colored
// clusters are k-separated.
//
// The paper cites the 2^O(√(log n log log n))-round CONGEST construction of
// [GK18] (Theorem 3.2). We substitute a deterministic ball-carving
// decomposition (see docs/ARCHITECTURE.md#substitutions, substitution 1):
// repeatedly grow a BFS ball
// from the smallest-ID unclustered node until the ball stops growing by a
// (1+δ) factor, which bounds the radius by log_{1+δ} n; clusters are then
// greedily colored on the cluster graph whose edges join clusters at
// distance ≤ k. The output satisfies every requirement of Definition 3.2;
// the cluster count, diameter d and color count c are measured quantities.
package decomp

import (
	"fmt"
	"sort"

	"congestds/internal/graph"
)

// Cluster is one cluster of a decomposition (Definition 3.1).
type Cluster struct {
	// Leader is the cluster leader ℓ(C) (the ball centre).
	Leader int
	// Nodes lists the members, sorted by node index.
	Nodes []int
	// Parent maps each member to its parent in the cluster's spanning tree
	// rooted at Leader (-1 for the leader). Indexed by node, only members
	// are meaningful.
	Parent map[int]int
	// Radius is the tree depth (≤ diameter of the tree ≤ 2·Radius).
	Radius int
	// Color is the cluster's color in the k-separated coloring.
	Color int
}

// Decomposition is a k-hop (d, c)-decomposition of a graph (Definition 3.2).
type Decomposition struct {
	K        int
	Clusters []*Cluster
	// Of maps each node to its cluster index.
	Of []int
	// NumColors is c; MaxRadius bounds d/2.
	NumColors int
	MaxRadius int
	// ChargedRounds is the synchronous-round cost charged for constructing
	// the decomposition with a leader-serialized distributed schedule.
	ChargedRounds int
}

// Params configures the ball-carving construction.
type Params struct {
	// K is the separation parameter (same-color clusters are at pairwise
	// distance > K). The paper's Lemma 3.4 uses K = 2.
	K int
}

// delta is the sparsity threshold δ of the ball-growing rule: growing stops
// at the first radius where |B(r+1)| ≤ (1+δ)·|B(r)|, so the radius is at
// most log_{1+δ} n = log₂ n.
const delta = 1.0

// Build computes a K-hop decomposition of g.
func Build(g *graph.Graph, p Params) (*Decomposition, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("decomp: K=%d < 1", p.K)
	}
	n := g.N()
	d := &Decomposition{K: p.K, Of: make([]int, n)}
	for v := range d.Of {
		d.Of[v] = -1
	}
	// Unclustered nodes in ID order (deterministic carving order).
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool { return g.ID(order[i]) < g.ID(order[j]) })

	charged := 0
	for _, centre := range order {
		if d.Of[centre] >= 0 {
			continue
		}
		c := carveBall(g, centre, d.Of)
		c.Color = -1
		for _, v := range c.Nodes {
			d.Of[v] = len(d.Clusters)
		}
		d.Clusters = append(d.Clusters, c)
		if c.Radius > d.MaxRadius {
			d.MaxRadius = c.Radius
		}
		// Leader-serialized distributed cost: locating the next centre and
		// growing the ball layer by layer costs O(radius) rounds plus a
		// constant per cluster.
		charged += 2*c.Radius + 2
	}
	colRounds := d.colorClusters(g)
	d.ChargedRounds = charged + colRounds
	return d, nil
}

// carveBall grows a BFS ball from centre within the unclustered residual
// graph, stopping at the first radius whose next layer grows the ball by a
// factor of at most (1+delta).
func carveBall(g *graph.Graph, centre int, of []int) *Cluster {
	parent := map[int]int{centre: -1}
	ball := []int{centre}
	frontier := []int{centre}
	radius := 0
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for _, wn := range g.Neighbors(v) {
				w := int(wn)
				if of[w] >= 0 {
					continue // already clustered
				}
				if _, seen := parent[w]; seen {
					continue
				}
				parent[w] = v
				next = append(next, w)
			}
		}
		if len(next) == 0 {
			break
		}
		grown := float64(len(ball)+len(next)) / float64(len(ball))
		ball = append(ball, next...)
		frontier = next
		radius++
		if grown <= 1+delta {
			break
		}
	}
	sort.Ints(ball)
	return &Cluster{Leader: centre, Nodes: ball, Parent: parent, Radius: radius}
}

// colorClusters greedily colors the cluster graph (clusters adjacent when at
// graph distance ≤ K) in leader-ID order and returns the charged rounds.
func (d *Decomposition) colorClusters(g *graph.Graph) int {
	nc := len(d.Clusters)
	adj := make([]map[int]struct{}, nc)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	// K-limited BFS from every node, linking its cluster to every cluster
	// within distance K.
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
			if dist[v] == d.K {
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
	// Greedy coloring in leader-ID order; rounds = longest decreasing chain.
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.ID(d.Clusters[order[a]].Leader) < g.ID(d.Clusters[order[b]].Leader)
	})
	depthOf := make([]int, nc)
	maxDepth := 0
	for _, ci := range order {
		used := make(map[int]struct{})
		dep := 0
		for cj := range adj[ci] {
			if g.ID(d.Clusters[cj].Leader) < g.ID(d.Clusters[ci].Leader) {
				if col := d.Clusters[cj].Color; col >= 0 {
					used[col] = struct{}{}
				}
				if depthOf[cj] > dep {
					dep = depthOf[cj]
				}
			}
		}
		c := 0
		for {
			if _, taken := used[c]; !taken {
				break
			}
			c++
		}
		d.Clusters[ci].Color = c
		depthOf[ci] = dep + 1
		if depthOf[ci] > maxDepth {
			maxDepth = depthOf[ci]
		}
		if c+1 > d.NumColors {
			d.NumColors = c + 1
		}
	}
	// Each coloring round costs O(K) graph rounds (cluster-graph edges are
	// length-≤K paths) plus tree aggregation within clusters.
	return maxDepth * (d.K + 2*d.MaxRadius + 1)
}

// Validate checks Definitions 3.1 and 3.2: partition, connected clusters
// with valid spanning trees rooted at leaders, and K-separation of
// same-colored clusters.
func (d *Decomposition) Validate(g *graph.Graph) error {
	seen := make([]bool, g.N())
	for ci, c := range d.Clusters {
		if len(c.Nodes) == 0 {
			return fmt.Errorf("decomp: cluster %d empty", ci)
		}
		for _, v := range c.Nodes {
			if seen[v] {
				return fmt.Errorf("decomp: node %d in two clusters", v)
			}
			seen[v] = true
			if d.Of[v] != ci {
				return fmt.Errorf("decomp: Of[%d] != %d", v, ci)
			}
		}
		// Spanning tree: every member reaches the leader through members.
		for _, v := range c.Nodes {
			steps := 0
			for u := v; u != c.Leader; u = c.Parent[u] {
				p, ok := c.Parent[u]
				if !ok || p < 0 {
					return fmt.Errorf("decomp: cluster %d: node %d has no path to leader", ci, v)
				}
				if !g.HasEdge(u, p) {
					return fmt.Errorf("decomp: cluster %d: tree edge {%d,%d} not in graph", ci, u, p)
				}
				if d.Of[p] != ci {
					return fmt.Errorf("decomp: cluster %d: tree leaves cluster at %d", ci, p)
				}
				steps++
				if steps > len(c.Nodes) {
					return fmt.Errorf("decomp: cluster %d: tree cycle", ci)
				}
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("decomp: node %d unclustered", v)
		}
	}
	// K-separation of same-colored clusters: BFS to depth K.
	for v := 0; v < g.N(); v++ {
		dist, _ := g.BFS(v)
		for u := 0; u < g.N(); u++ {
			if dist[u] > 0 && dist[u] <= d.K &&
				d.Of[u] != d.Of[v] &&
				d.Clusters[d.Of[u]].Color == d.Clusters[d.Of[v]].Color {
				return fmt.Errorf("decomp: same-color clusters %d,%d at distance %d ≤ K=%d",
					d.Of[v], d.Of[u], dist[u], d.K)
			}
		}
	}
	return nil
}
