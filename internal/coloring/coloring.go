// Package coloring provides the deterministic distance-two colorings that
// drive the paper's derandomization (Section 3.3): proper colorings of
// bipartite constraint structures (Lemma 3.12). One greedy serves every
// coloring in the pipeline. A G² coloring is the special case whose
// constraints are the closed neighbourhoods N[v]; the cluster coloring of
// a 2-hop network decomposition (package decomp, Lemma 3.4) is the one
// whose sites are clusters and whose constraints are the N[w] with each
// node replaced by its cluster.
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
	"cmp"
	"slices"
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

// Classes returns the colored sites grouped by color: Classes()[c] lists
// the sites of color c in ascending order. Uncolored sites are left out.
func (r *Result) Classes() [][]int {
	// Size the classes first, so they share one exactly sized array.
	size := make([]int, r.NumColors)
	total := 0
	for _, c := range r.Colors {
		if c >= 0 {
			size[c]++
			total++
		}
	}
	flat := make([]int, total)
	classes := make([][]int, r.NumColors)
	for c, k := range size {
		classes[c], flat = flat[:0:k], flat[k:]
	}
	for j, c := range r.Colors {
		if c >= 0 {
			classes[c] = append(classes[c], j)
		}
	}
	return classes
}

// Distance2Bipartite colors the participating right-hand sites of a
// bipartite constraint structure so that two sites sharing a constraint get
// different colors — the "distance two coloring of VR" of Lemma 3.12. The
// structure is given as constraint member lists over sites 0..nSites-1.
// Sites with participating[j] == false are ignored (they correspond to
// p(v) ∈ {0,1}, cf. Lemma 3.10's set S).
//
// The conflicts of a site v are walked as the members of v's constraints,
// through a site→constraint index; no conflict graph is built. A site may
// be visited several times, and v itself is visited, but the greedy only
// reads the set of smaller-ID conflicts, so neither changes the result.
func Distance2Bipartite(nSites int, members [][]int32, participating []bool, ids []int64) *Result {
	// Site→constraint CSR over participating sites: count, prefix-sum, then
	// fill backwards so start[j] ends at the first entry of site j.
	start := make([]int32, nSites+1)
	for _, ms := range members {
		for _, j := range ms {
			if participating[j] {
				start[j]++
			}
		}
	}
	for j := 1; j <= nSites; j++ {
		start[j] += start[j-1]
	}
	consOf := make([]int32, start[nSites])
	for i, ms := range members {
		for _, j := range ms {
			if participating[j] {
				start[j]--
				consOf[start[j]] = int32(i)
			}
		}
	}

	// Greedy elimination in ID order.
	order := make([]int32, 0, nSites)
	for v := 0; v < nSites; v++ {
		if participating[v] {
			order = append(order, int32(v))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })

	colors := make([]int, nSites)
	for v := range colors {
		colors[v] = -1
	}
	depth := make([]int32, nSites) // rounds until v's color is decided
	// used[c] == k+1 marks color c as taken by a conflict of order[k].
	used := make([]int32, len(order)+1)
	num, maxDepth := 0, int32(0)
	for k, v := range order {
		stamp := int32(k + 1)
		d := int32(0)
		for _, i := range consOf[start[v]:start[v+1]] {
			for _, u := range members[i] {
				// Uncolored sites are non-participating or not yet decided.
				if colors[u] < 0 || ids[u] >= ids[v] {
					continue
				}
				used[colors[u]] = stamp
				d = max(d, depth[u])
			}
		}
		c := 0
		for used[c] == stamp {
			c++
		}
		colors[v] = c
		depth[v] = d + 1
		maxDepth = max(maxDepth, d+1)
		num = max(num, c+1)
	}
	return &Result{Colors: colors, NumColors: num, Rounds: int(maxDepth)}
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
