// Package decomp implements strong-diameter 2-hop network decompositions
// (Definitions 3.1 and 3.2 of the paper, with the k = 2 of Lemma 3.4): a
// partition of the nodes into connected clusters of small diameter, each
// with a leader and a spanning tree, together with a coloring of the
// clusters in which same-colored clusters are at distance > 2.
//
// The paper cites the 2^O(√(log n log log n))-round CONGEST construction of
// [GK18] (Theorem 3.2). We substitute a deterministic ball-carving
// decomposition (see docs/ARCHITECTURE.md#substitutions, substitution 1):
// repeatedly grow a BFS ball
// from the smallest-ID unclustered node until the ball stops growing by a
// (1+δ) factor, which bounds the radius by log_{1+δ} n; clusters are then
// colored by the distance-two greedy of package coloring, whose
// constraints are the closed neighbourhoods N[w] mapped to clusters (two
// clusters are at distance ≤ 2 iff some N[w] meets both). The output
// satisfies every requirement of Definition 3.2; the cluster count,
// diameter d and color count c are measured quantities.
package decomp

import (
	"cmp"
	"fmt"
	"slices"

	"congestds/internal/coloring"
	"congestds/internal/graph"
)

// Cluster is one cluster of a decomposition (Definition 3.1).
type Cluster struct {
	// Leader is the cluster leader ℓ(C) (the ball centre).
	Leader int
	// Nodes lists the members in ID order.
	Nodes []int
	// Radius is the tree depth (≤ diameter of the tree ≤ 2·Radius).
	Radius int
	// Color is the cluster's color in the 2-separated coloring.
	Color int
}

// Decomposition is a 2-hop (d, c)-decomposition of a graph (Definition 3.2).
type Decomposition struct {
	Clusters []*Cluster
	// Of maps each node to its cluster index.
	Of []int
	// Parent maps each node to its parent in its cluster's spanning tree,
	// rooted at the leader (-1 for leaders).
	Parent []int
	// NumColors is c; MaxRadius bounds d/2.
	NumColors int
	MaxRadius int
	// ChargedRounds is the synchronous-round cost charged for constructing
	// the decomposition with a leader-serialized distributed schedule.
	ChargedRounds int
}

// k is the separation: same-colored clusters are at pairwise distance > k.
// Lemma 3.4 uses k = 2, the only separation at which two clusters conflict
// exactly when some closed neighbourhood N[w] meets both.
const k = 2

// delta is the sparsity threshold δ of the ball-growing rule: growing stops
// at the first radius where |B(r+1)| ≤ (1+δ)·|B(r)|, so the radius is at
// most log_{1+δ} n = log₂ n.
const delta = 1.0

// Build computes a 2-hop decomposition of g.
func Build(g *graph.Graph) *Decomposition {
	n := g.N()
	d := &Decomposition{Of: make([]int, n), Parent: make([]int, n)}
	for v := range d.Of {
		d.Of[v] = -1
	}
	// Unclustered nodes in ID order (deterministic carving order).
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	byID := func(a, b int) int { return cmp.Compare(g.ID(a), g.ID(b)) }
	slices.SortFunc(order, byID)

	charged := 0
	for _, centre := range order {
		if d.Of[centre] >= 0 {
			continue
		}
		c := d.carveBall(g, centre)
		slices.SortFunc(c.Nodes, byID)
		d.Clusters = append(d.Clusters, c)
		d.MaxRadius = max(d.MaxRadius, c.Radius)
		// Leader-serialized distributed cost: locating the next centre and
		// growing the ball layer by layer costs O(radius) rounds plus a
		// constant per cluster.
		charged += 2*c.Radius + 2
	}
	d.ChargedRounds = charged + d.colorClusters(g)
	return d
}

// carveBall grows a BFS ball from centre within the unclustered residual
// graph, stopping at the first radius whose next layer grows the ball by a
// factor of at most (1+delta). Reached nodes join the new cluster in d.Of
// and record their BFS parent in d.Parent; the members come back in BFS
// order.
func (d *Decomposition) carveBall(g *graph.Graph, centre int) *Cluster {
	ci := len(d.Clusters)
	d.Of[centre], d.Parent[centre] = ci, -1
	ball := []int{centre}
	layer, radius := 0, 0 // ball[layer:] is the outermost layer
	for {
		size := len(ball)
		for _, v := range ball[layer:size] {
			for _, wn := range g.Neighbors(v) {
				w := int(wn)
				if d.Of[w] >= 0 {
					continue // clustered, or already in this ball
				}
				d.Of[w], d.Parent[w] = ci, v
				ball = append(ball, w)
			}
		}
		if len(ball) == size {
			break
		}
		grown := float64(len(ball)) / float64(size)
		layer = size
		radius++
		if grown <= 1+delta {
			break
		}
	}
	return &Cluster{Leader: centre, Nodes: ball, Radius: radius}
}

// colorClusters colors the clusters with the shared distance-two greedy in
// leader-ID order and returns the charged rounds. Two clusters are at
// distance ≤ 2 exactly when some closed neighbourhood N[w] meets both, so
// the constraints are the N[w] with each node replaced by its cluster, and
// no cluster graph is built.
func (d *Decomposition) colorClusters(g *graph.Graph) int {
	cons := g.ClosedNeighborhoods() // fresh rows, rewritten in place
	for _, ms := range cons {
		for i, u := range ms {
			ms[i] = int32(d.Of[u])
		}
	}
	nc := len(d.Clusters)
	part := make([]bool, nc)
	ids := make([]int64, nc)
	for ci, c := range d.Clusters {
		part[ci], ids[ci] = true, g.ID(c.Leader)
	}
	col := coloring.Distance2Bipartite(nc, cons, part, ids)
	for ci, c := range d.Clusters {
		c.Color = col.Colors[ci]
	}
	d.NumColors = col.NumColors
	// Each coloring round costs O(k) graph rounds (cluster-graph edges are
	// length-≤k paths) plus tree aggregation within clusters.
	return col.Rounds * (k + 2*d.MaxRadius + 1)
}

// Validate checks Definitions 3.1 and 3.2: partition, connected clusters
// with valid spanning trees rooted at leaders, and 2-separation of
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
			for u := v; u != c.Leader; u = d.Parent[u] {
				p := d.Parent[u]
				if p < 0 {
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
	// 2-separation of same-colored clusters: BFS to depth 2.
	for v := 0; v < g.N(); v++ {
		dist, _ := g.BFS(v)
		for u := 0; u < g.N(); u++ {
			if dist[u] > 0 && dist[u] <= k &&
				d.Of[u] != d.Of[v] &&
				d.Clusters[d.Of[u]].Color == d.Clusters[d.Of[v]].Color {
				return fmt.Errorf("decomp: same-color clusters %d,%d at distance %d ≤ %d",
					d.Of[v], d.Of[u], dist[u], k)
			}
		}
	}
	return nil
}
