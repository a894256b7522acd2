// Package cds implements Section 4 of the paper: transforming a dominating
// set S into a connected dominating set (Theorem 1.4, a deterministic
// O(ln Δ)-approximation).
//
// Construction, following the paper:
//
//  1. Build G_S (Claim 4.1): the graph on S with edges between members at
//     G-distance ≤ 3; G_S is connected iff G is.
//  2. Compute a ruling set S' ⊆ S on G_S: pairwise distance ≥ α, every
//     member of S within distance < α of S' (the paper uses the [ALGP89,
//     HKN16] construction with α = Θ(log² n); here α = max(2, ⌈log₂(n+1)⌉)).
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
	"fmt"
	"math"
	"sort"

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

// Extend turns an existing dominating set into a connected dominating set
// (the Section 4 transformation alone). The ledger may be nil.
func Extend(g *graph.Graph, ds []int, ledger *congest.Ledger) (*Result, error) {
	if ledger == nil {
		ledger = &congest.Ledger{}
	}
	res := &Result{DS: append([]int(nil), ds...), Ledger: ledger}
	if err := verify.CheckDominating(g, ds); err != nil {
		return nil, fmt.Errorf("cds: input set: %w", err)
	}
	if len(ds) <= 1 {
		res.CDS = append([]int(nil), ds...)
		return res, nil
	}
	logn := int(math.Ceil(math.Log2(float64(g.N() + 1))))
	// The ruling set distance parameter on G_S (the paper's c'·log² n).
	alpha := max(2, logn)

	gs := buildGS(g, ds)

	// Ruling set on G_S by greedy ID order (deterministic substitute for the
	// [ALGP89/HKN16] distributed construction; same (α, α−1) guarantees).
	rs := rulingSet(g, gs, alpha)
	res.RulingSet = rs

	// Multi-source BFS clustering on G_S with cluster trees.
	clusterOf, parentEdge := clusterize(gs, rs)

	// Collect CDS nodes: S plus inner nodes of all used paths.
	inCDS := make([]bool, g.N())
	for _, s := range ds {
		inCDS[s] = true
	}
	for _, pe := range parentEdge {
		addPath(inCDS, pe)
	}

	// Cluster graph spanning structure: BFS tree over clusters, connecting
	// via representative G_S edges.
	if err := connectClusters(gs, rs, clusterOf, inCDS); err != nil {
		return nil, err
	}

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
	ledger.Charge("cds/connect", 3*(len(rs)+1))

	if err := verify.CheckCDS(g, res.CDS); err != nil {
		return nil, fmt.Errorf("cds: internal: %w", err)
	}
	return res, nil
}

// gsGraph is G_S: S-members with edges between members at distance ≤ 3,
// each edge carrying a realizing G-path.
type gsGraph struct {
	nodes []int            // the members of S, sorted
	index map[int]int      // node -> position in nodes
	adj   [][]int          // adjacency by position
	paths map[[2]int][]int // canonical (minPos,maxPos) -> full G-path (incl. endpoints)
}

// buildGS constructs G_S by depth-3 BFS from every member of S.
func buildGS(g *graph.Graph, ds []int) *gsGraph {
	nodes := append([]int(nil), ds...)
	sort.Ints(nodes)
	gs := &gsGraph{
		nodes: nodes,
		index: make(map[int]int, len(nodes)),
		adj:   make([][]int, len(nodes)),
		paths: make(map[[2]int][]int),
	}
	for i, v := range nodes {
		gs.index[v] = i
	}
	inS := make([]bool, g.N())
	for _, v := range nodes {
		inS[v] = true
	}
	dist := make([]int, g.N())
	parent := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	for si, s := range nodes {
		// BFS to depth 3.
		var visited []int
		queue := []int{s}
		dist[s] = 0
		parent[s] = -1
		visited = append(visited, s)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == 3 {
				continue
			}
			for _, un := range g.Neighbors(v) {
				u := int(un)
				if dist[u] >= 0 {
					continue
				}
				dist[u] = dist[v] + 1
				parent[u] = v
				visited = append(visited, u)
				queue = append(queue, u)
			}
		}
		for _, t := range visited {
			if t == s || !inS[t] {
				continue
			}
			ti := gs.index[t]
			key := [2]int{si, ti}
			if si > ti {
				key = [2]int{ti, si}
			}
			if _, done := gs.paths[key]; done {
				continue
			}
			// Reconstruct the realizing path s..t.
			var path []int
			for v := t; v != -1; v = parent[v] {
				path = append(path, v)
			}
			gs.paths[key] = path
			gs.adj[si] = append(gs.adj[si], ti)
			gs.adj[ti] = append(gs.adj[ti], si)
		}
		for _, v := range visited {
			dist[v] = -1
		}
	}
	for i := range gs.adj {
		sort.Ints(gs.adj[i])
	}
	return gs
}

// rulingSet greedily selects members (in g-ID order) at pairwise G_S
// distance ≥ alpha.
func rulingSet(g *graph.Graph, gs *gsGraph, alpha int) []int {
	order := make([]int, len(gs.nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.ID(gs.nodes[order[a]]) < g.ID(gs.nodes[order[b]])
	})
	selected := make([]bool, len(gs.nodes))
	var rs []int
	dist := make([]int, len(gs.nodes))
	for i := range dist {
		dist[i] = -1
	}
	for _, cand := range order {
		// BFS from cand to depth alpha-1 looking for an existing centre.
		ok := true
		queue := []int{cand}
		dist[cand] = 0
		visited := []int{cand}
		for qi := 0; qi < len(queue) && ok; qi++ {
			v := queue[qi]
			if selected[v] {
				ok = false
				break
			}
			if dist[v] == alpha-1 {
				continue
			}
			for _, u := range gs.adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					visited = append(visited, u)
					queue = append(queue, u)
				}
			}
		}
		for _, v := range visited {
			dist[v] = -1
		}
		if ok {
			selected[cand] = true
			rs = append(rs, gs.nodes[cand])
		}
	}
	sort.Ints(rs)
	return rs
}

// clusterize assigns every G_S node to its nearest centre (ties: smaller
// centre node, then smaller node) by multi-source BFS and returns, per G_S
// position, the cluster centre position and the realizing path of the BFS
// tree edge toward the centre (nil for centres).
func clusterize(gs *gsGraph, rs []int) (clusterOf []int, parentEdge [][]int) {
	n := len(gs.nodes)
	clusterOf = make([]int, n)
	parentEdge = make([][]int, n)
	distTo := make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
		distTo[i] = -1
	}
	var queue []int
	for _, c := range rs {
		ci := gs.index[c]
		clusterOf[ci] = ci
		distTo[ci] = 0
		queue = append(queue, ci)
	}
	sort.Ints(queue) // deterministic multi-source order
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, u := range gs.adj[v] {
			if clusterOf[u] >= 0 {
				continue
			}
			clusterOf[u] = clusterOf[v]
			distTo[u] = distTo[v] + 1
			parentEdge[u] = gs.pathBetween(u, v)
			queue = append(queue, u)
		}
	}
	return clusterOf, parentEdge
}

// pathBetween returns the realizing G-path of the G_S edge {a,b}.
func (gs *gsGraph) pathBetween(a, b int) []int {
	key := [2]int{a, b}
	if a > b {
		key = [2]int{b, a}
	}
	return gs.paths[key]
}

// connectClusters adds connector paths between clusters along a BFS spanning
// tree of the cluster graph.
func connectClusters(gs *gsGraph, rs []int, clusterOf []int, inCDS []bool) error {
	if len(rs) <= 1 {
		return nil
	}
	// Cluster adjacency with representative G_S edges (lexicographically
	// smallest position pair).
	type rep struct{ a, b int }
	reps := make(map[[2]int]rep)
	for a := range gs.adj {
		for _, b := range gs.adj[a] {
			if a >= b {
				continue
			}
			ca, cb := clusterOf[a], clusterOf[b]
			if ca == cb {
				continue
			}
			key := [2]int{ca, cb}
			if ca > cb {
				key = [2]int{cb, ca}
			}
			if r, ok := reps[key]; !ok || a < r.a || (a == r.a && b < r.b) {
				reps[key] = rep{a: a, b: b}
			}
		}
	}
	// BFS over clusters from the smallest centre position. Clusters are
	// named by their centre's position, so adjacency is position-indexed.
	adj := make([][]int, len(gs.adj))
	for key := range reps {
		adj[key[0]] = append(adj[key[0]], key[1])
		adj[key[1]] = append(adj[key[1]], key[0])
	}
	for _, nbrs := range adj {
		sort.Ints(nbrs)
	}
	centres := make([]int, 0, len(rs))
	for _, c := range rs {
		centres = append(centres, gs.index[c])
	}
	sort.Ints(centres)
	visited := make([]bool, len(gs.adj))
	visited[centres[0]] = true
	queue := []int{centres[0]}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		for _, d := range adj[c] {
			if visited[d] {
				continue
			}
			visited[d] = true
			queue = append(queue, d)
			key := [2]int{c, d}
			if c > d {
				key = [2]int{d, c}
			}
			r := reps[key]
			addPath(inCDS, gs.pathBetween(r.a, r.b))
		}
	}
	if len(queue) != len(centres) {
		return fmt.Errorf("cds: cluster graph disconnected (%d of %d clusters reached)",
			len(queue), len(centres))
	}
	return nil
}

// addPath marks all nodes of a realizing path as CDS members.
func addPath(inCDS []bool, path []int) {
	for _, v := range path {
		inCDS[v] = true
	}
}
