// Package cds implements Section 4 of the paper: transforming a dominating
// set S into a connected dominating set (Theorem 1.4, a deterministic
// O(ln Δ)-approximation).
//
// Construction, following the paper:
//
//  1. Build G_S (Claim 4.1): the graph on S with edges between members at
//     G-distance ≤ 3; G_S is connected iff G is. Each edge carries the ≤ 2
//     inner nodes of a realizing G-path, found by a depth-3 BFS.
//  2. Compute a ruling set S' ⊆ S on G_S: pairwise distance ≥ α, every
//     member of S within distance < α of S' (the paper uses the [ALGP89,
//     HKN16] construction with α = Θ(log² n); here α = max(2, ⌈log₂(n+1)⌉)).
//     Members are taken greedily in ID order: each one that no earlier
//     centre's radius-(α−1) ball holds becomes a centre and blocks its own
//     ball, one BFS per centre.
//  3. Cluster S around S' by multi-source BFS in G_S, building cluster
//     trees whose G_S edges are realized as G-paths of length ≤ 3
//     (Lemma 4.2).
//  4. Connect the cluster graph G'_S: the paper derandomizes the
//     Baswana–Sen spanner [BS07, GK18] to add O(|S'| log²|S'|) connecting
//     edges; we use a BFS spanning tree of G'_S, which is smaller
//     (|S'|−1 edges) and is valid because the construction is charged
//     rounds rather than executed natively (docs/ARCHITECTURE.md#substitutions,
//     substitution 1; the spanner exists to make this step efficient in
//     the real CONGEST model).
//  5. CDS = S ∪ inner nodes of all realized paths. Each G_S edge
//     contributes ≤ 2 inner nodes, so |CDS| ≤ 3|S| − 2.
package cds

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// Result is the output of Solve.
type Result struct {
	// CDS is the connected dominating set.
	CDS []int
	// DS is the underlying dominating set from Part 1.
	DS []int
	// RulingSet is S' (cluster centres).
	RulingSet []int
	// Bound is the guaranteed approximation factor 3·(1+ε)(1+ln(Δ+1)).
	Bound float64
	// Ledger accumulates rounds across the MDS pipeline and the CDS
	// transformation.
	Ledger *congest.Ledger
}

// Solve computes a connected dominating set of the connected graph g from
// the dominating set mds.Solve computes under p. A disconnected g is caller
// misuse: the error wraps congest.ErrConfig.
func Solve(g *graph.Graph, p mds.Params) (*Result, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("%w: cds: graph is not connected", congest.ErrConfig)
	}
	mres, err := mds.Solve(g, p)
	if err != nil {
		return nil, fmt.Errorf("cds: dominating set: %w", err)
	}
	res, err := Extend(g, mres.Set, mres.Ledger)
	if err != nil {
		return nil, err
	}
	res.Bound = 3 * mres.Bound
	return res, nil
}

// Extend turns an existing dominating set of the connected graph g into a
// connected dominating set (the Section 4 transformation alone). Repeated
// members count once. A disconnected g is caller misuse: the error wraps
// congest.ErrConfig. The ledger may be nil.
func Extend(g *graph.Graph, ds []int, ledger *congest.Ledger) (*Result, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("%w: cds: graph is not connected", congest.ErrConfig)
	}
	if ledger == nil {
		ledger = &congest.Ledger{}
	}
	res := &Result{DS: append([]int(nil), ds...), Ledger: ledger}
	if err := verify.CheckDominating(g, ds); err != nil {
		return nil, fmt.Errorf("cds: input set: %w", err)
	}
	members := slices.Compact(slices.Sorted(slices.Values(ds)))
	if len(members) <= 1 {
		res.CDS = members
		return res, nil
	}
	logn := int(math.Ceil(math.Log2(float64(g.N() + 1))))
	// The ruling set distance parameter on G_S (the paper's c'·log² n).
	alpha := max(2, logn)

	gs := buildGS(g, members)
	centres := gs.rulingSet(g, alpha)
	for _, c := range centres {
		res.RulingSet = append(res.RulingSet, members[c])
	}

	// CDS = S plus the inner nodes of the cluster-tree edges and of the
	// edges joining the clusters.
	inCDS := make([]bool, g.N())
	for _, s := range members {
		inCDS[s] = true
	}
	clusterOf := gs.clusterize(centres, inCDS)
	gs.connectClusters(centres, clusterOf, inCDS)
	for v, in := range inCDS {
		if in {
			res.CDS = append(res.CDS, v)
		}
	}

	// Charged rounds: ruling set + clustering are the paper's O(log³ n)
	// phase (Lemma 4.2); connecting the clusters costs O(cluster-graph
	// diameter) G_S rounds, each simulated by ≤ 3 G rounds with the path
	// selection of [Gha14].
	ledger.Charge("cds/ruling+clustering", alpha*logn+3*logn)
	ledger.Charge("cds/connect", 3*(len(centres)+1))

	if err := verify.CheckCDS(g, res.CDS); err != nil {
		return nil, fmt.Errorf("cds: internal: %w", err)
	}
	return res, nil
}

// gsGraph is G_S: the members of S, named by position, with an edge between
// members at G-distance ≤ 3.
type gsGraph struct {
	nodes []int   // the members of S, sorted and distinct
	adj   [][]arc // by position; each row sorted by target position
}

// arc is one direction of a G_S edge: the target position and the inner
// nodes of the edge's realizing G-path, -1 where the path is shorter.
type arc struct {
	to  int32
	via [2]int32
}

// mark adds the arc's inner nodes to the CDS.
func (e arc) mark(inCDS []bool) {
	for _, v := range e.via {
		if v >= 0 {
			inCDS[v] = true
		}
	}
}

// buildGS constructs G_S by a depth-3 BFS from every member of S. The BFS
// at an edge's smaller position records it, realized by its tree path, when
// it reaches the larger one.
func buildGS(g *graph.Graph, nodes []int) *gsGraph {
	gs := &gsGraph{nodes: nodes, adj: make([][]arc, len(nodes))}
	pos := make([]int32, g.N()) // node → position in nodes, -1 outside S
	dist := make([]int, g.N())  // -1 outside the current BFS
	parent := make([]int32, g.N())
	for v := range pos {
		pos[v], dist[v] = -1, -1
	}
	for i, v := range nodes {
		pos[v] = int32(i)
	}
	var queue, later []int32
	for a, s := range nodes {
		queue = append(queue[:0], int32(s))
		dist[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == 3 {
				continue
			}
			for _, u := range g.Neighbors(int(v)) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					parent[u] = v
					queue = append(queue, u)
				}
			}
		}
		later = later[:0]
		for _, t := range queue {
			if int(pos[t]) > a {
				later = append(later, pos[t])
			}
			dist[t] = -1
		}
		slices.Sort(later)
		for _, b := range later {
			e := arc{to: b, via: [2]int32{-1, -1}}
			for i, v := 0, parent[nodes[b]]; int(v) != s; i, v = i+1, parent[v] {
				e.via[i] = v
			}
			gs.adj[a] = append(gs.adj[a], e)
			e.to = int32(a)
			gs.adj[b] = append(gs.adj[b], e)
		}
	}
	return gs
}

// rulingSet walks the members in ID order, selects each one no earlier
// centre blocks and blocks its radius-(α−1) ball, so centres are pairwise
// ≥ α apart in G_S and every member is within α−1 of one (the greedy
// substitute for the [ALGP89, HKN16] construction). It returns the centres'
// positions, ascending.
func (gs *gsGraph) rulingSet(g *graph.Graph, alpha int) []int {
	order := make([]int, len(gs.nodes))
	dist := make([]int, len(gs.nodes)) // -1 outside the current ball
	for i := range order {
		order[i], dist[i] = i, -1
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(g.ID(gs.nodes[a]), g.ID(gs.nodes[b]))
	})
	blocked := make([]bool, len(gs.nodes))
	var centres, queue []int
	for _, c := range order {
		if blocked[c] {
			continue
		}
		centres = append(centres, c)
		queue = append(queue[:0], c)
		dist[c] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			blocked[v] = true
			if dist[v] == alpha-1 {
				continue
			}
			for _, e := range gs.adj[v] {
				if dist[e.to] < 0 {
					dist[e.to] = dist[v] + 1
					queue = append(queue, int(e.to))
				}
			}
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	slices.Sort(centres)
	return centres
}

// clusterize assigns every member to its nearest centre by multi-source BFS
// over G_S, seeded in position order, and marks the inner nodes of each BFS
// tree edge in inCDS. It returns each position's cluster, named by its
// centre's position.
func (gs *gsGraph) clusterize(centres []int, inCDS []bool) []int {
	clusterOf := make([]int, len(gs.nodes))
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	for _, c := range centres {
		clusterOf[c] = c
	}
	queue := append([]int(nil), centres...)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, e := range gs.adj[v] {
			if clusterOf[e.to] < 0 {
				clusterOf[e.to] = clusterOf[v]
				e.mark(inCDS)
				queue = append(queue, int(e.to))
			}
		}
	}
	return clusterOf
}

// connectClusters marks the inner nodes of a BFS spanning tree of the
// cluster graph, grown from the smallest centre position. A cluster joins
// through the lexicographically smallest G_S edge {a, b}, a < b, between it
// and the first cluster that reaches it; CheckCDS catches a cluster that
// none reaches.
func (gs *gsGraph) connectClusters(centres, clusterOf []int, inCDS []bool) {
	// links[c] holds an arc to the far cluster per G_S edge leaving cluster
	// c, in lexicographic edge order.
	links := make([][]arc, len(gs.nodes))
	for a, row := range gs.adj {
		for _, e := range row {
			ca, cb := clusterOf[a], clusterOf[e.to]
			if int(e.to) > a && ca != cb {
				links[ca] = append(links[ca], arc{to: int32(cb), via: e.via})
				links[cb] = append(links[cb], arc{to: int32(ca), via: e.via})
			}
		}
	}
	visited := make([]bool, len(gs.nodes))
	visited[centres[0]] = true
	queue := []int{centres[0]}
	for qi := 0; qi < len(queue); qi++ {
		// The stable sort keeps each far cluster's smallest edge first.
		row := links[queue[qi]]
		slices.SortStableFunc(row, func(x, y arc) int { return cmp.Compare(x.to, y.to) })
		for _, l := range row {
			if !visited[l.to] {
				visited[l.to] = true
				l.mark(inCDS)
				queue = append(queue, int(l.to))
			}
		}
	}
}
