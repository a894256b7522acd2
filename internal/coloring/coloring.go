// Package coloring provides the deterministic colorings that drive the
// paper's coloring-based derandomization (Section 3.3): proper colorings of
// conflict structures ("distance-two colorings" of bipartite graphs,
// Lemma 3.12) and plain (Δ+1)-colorings of graphs.
//
// The colorings are computed by deterministic greedy elimination in ID
// order. Distributed cost: a node can decide its color as soon as every
// conflicting node with a smaller ID has decided, so the synchronous round
// count equals the longest strictly-ID-decreasing path in the conflict
// structure, which the functions report as charged rounds; Lemma 3.12's
// simulation overhead (one conflict round costs O(Δ_L) CONGEST rounds on the
// bipartite graph) is applied by the caller. See
// docs/ARCHITECTURE.md#substitutions, substitution 5.
package coloring

import (
	"sort"

	"congestds/internal/graph"
)

// Result is a computed coloring.
type Result struct {
	// Colors holds a color in 0..NumColors-1 per site (-1 for sites that
	// were not colored, e.g. non-participating sites).
	Colors []int
	// NumColors is the palette size used.
	NumColors int
	// Rounds is the charged synchronous round count of the greedy schedule
	// (longest ID-decreasing dependency chain).
	Rounds int
}

// Graph computes a proper coloring of g with at most Δ+1 colors by greedy
// elimination in ID order.
func Graph(g *graph.Graph) *Result {
	n := g.N()
	conflicts := func(v int, fn func(u int)) {
		for _, u := range g.Neighbors(v) {
			fn(int(u))
		}
	}
	active := make([]bool, n)
	for v := range active {
		active[v] = true
	}
	return greedy(n, g.IDs(), active, conflicts)
}

// Distance2Bipartite colors the participating right-hand sites of a
// bipartite constraint structure so that two sites sharing a constraint get
// different colors — the "distance two coloring of VR" of Lemma 3.12. The
// structure is given as constraint member lists over sites 0..nSites-1.
// Sites with participating[j] == false are ignored (they correspond to
// p(v) ∈ {0,1}, cf. Lemma 3.10's set S).
func Distance2Bipartite(nSites int, members [][]int32, participating []bool, ids []int64) *Result {
	// Build conflict adjacency: sites sharing a constraint.
	adj := make(map[int]map[int]struct{}, nSites)
	addConflict := func(a, b int) {
		if adj[a] == nil {
			adj[a] = make(map[int]struct{})
		}
		adj[a][b] = struct{}{}
	}
	for _, ms := range members {
		for i := 0; i < len(ms); i++ {
			if !participating[ms[i]] {
				continue
			}
			for j := i + 1; j < len(ms); j++ {
				if !participating[ms[j]] {
					continue
				}
				a, b := int(ms[i]), int(ms[j])
				if a != b {
					addConflict(a, b)
					addConflict(b, a)
				}
			}
		}
	}
	conflicts := func(v int, fn func(u int)) {
		// Deterministic iteration order.
		us := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			us = append(us, u)
		}
		sort.Ints(us)
		for _, u := range us {
			fn(u)
		}
	}
	return greedy(nSites, ids, participating, conflicts)
}

// greedy colors active sites in ID order; the charged round count is the
// longest ID-decreasing chain in the conflict structure restricted to active
// sites.
func greedy(n int, ids []int64, active []bool, conflicts func(v int, fn func(u int))) *Result {
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if active[v] {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool { return ids[order[i]] < ids[order[j]] })

	colors := make([]int, n)
	depth := make([]int, n) // rounds until v's color is decided
	for v := range colors {
		colors[v] = -1
	}
	num := 0
	maxDepth := 0
	for _, v := range order {
		used := make(map[int]struct{})
		d := 0
		conflicts(v, func(u int) {
			if !active[u] {
				return
			}
			if ids[u] < ids[v] {
				if colors[u] >= 0 {
					used[colors[u]] = struct{}{}
				}
				if depth[u] > d {
					d = depth[u]
				}
			}
		})
		c := 0
		for {
			if _, taken := used[c]; !taken {
				break
			}
			c++
		}
		colors[v] = c
		depth[v] = d + 1
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
		if c+1 > num {
			num = c + 1
		}
	}
	return &Result{Colors: colors, NumColors: num, Rounds: maxDepth}
}

// Validate checks that the coloring is proper for the given conflict
// structure (shared-constraint conflicts among participating sites). It
// returns false with the first conflicting pair when improper.
func Validate(res *Result, members [][]int32, participating []bool) (bool, [2]int) {
	for _, ms := range members {
		for i := 0; i < len(ms); i++ {
			if !participating[ms[i]] {
				continue
			}
			for j := i + 1; j < len(ms); j++ {
				if !participating[ms[j]] {
					continue
				}
				a, b := int(ms[i]), int(ms[j])
				if a != b && res.Colors[a] == res.Colors[b] {
					return false, [2]int{a, b}
				}
			}
		}
	}
	return true, [2]int{}
}
