// Package derand implements the paper's two derandomization engines for the
// abstract randomized rounding process:
//
//   - Engine I (Lemma 3.4): driven by a 2-hop network decomposition; colors
//     are processed in order, same-colored clusters act in parallel (their
//     inclusive neighbourhoods are disjoint), and coins inside a cluster are
//     fixed through the cluster tree.
//   - Engine II (Lemma 3.10): driven by a distance-2 coloring of the
//     participating value sites of the (possibly split bipartite, Lemmas
//     3.13/3.14) constraint structure; same-colored sites decide
//     simultaneously because they share no constraint.
//
// Both engines fix coins by the method of conditional expectations using
// rounding.Process, whose conditional bounds are exact where cheap and
// pessimistic (Chernoff) otherwise — see docs/ARCHITECTURE.md#substitutions,
// substitution 2.
package derand

import (
	"fmt"
	"sort"

	"congestds/internal/coloring"
	"congestds/internal/congest"
	"congestds/internal/decomp"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// ByColoring derandomizes proc with Engine II: participating sites are fixed
// color class by color class (Lemma 3.10). simFactor is the CONGEST
// simulation overhead per conflict-graph round (Lemma 3.12 charges O(Δ_L);
// pass 1 for the LOCAL model of Corollary 1.3). Returns the outcome.
func ByColoring(proc *rounding.Process, col *coloring.Result, ledger *congest.Ledger, simFactor int) (*rounding.Outcome, error) {
	inst := proc.Instance()
	nSites := len(inst.X)
	if len(col.Colors) != nSites {
		return nil, fmt.Errorf("derand: coloring covers %d sites, instance has %d", len(col.Colors), nSites)
	}
	if simFactor < 1 {
		simFactor = 1
	}
	// Group participating sites by color.
	byColor := make([][]int, col.NumColors)
	for j := 0; j < nSites; j++ {
		if !proc.Unassigned(j) {
			continue
		}
		c := col.Colors[j]
		if c < 0 {
			return nil, fmt.Errorf("derand: participating site %d is uncolored", j)
		}
		byColor[c] = append(byColor[c], j)
	}
	for c := 0; c < col.NumColors; c++ {
		// Same-colored sites share no constraint, so sequential fixing below
		// is observationally identical to the paper's simultaneous decision.
		for _, j := range byColor[c] {
			proc.DecideCoin(j)
		}
	}
	if ledger != nil {
		// One conflict round per color class; each costs O(simFactor)
		// CONGEST rounds plus 2 rounds to exchange α̃-values (Lemma 3.10).
		ledger.Charge("derand/engineII-colors", col.NumColors*(simFactor+2))
	}
	return proc.Finalize(), nil
}

// ByDecomposition derandomizes proc with Engine I (Lemma 3.4): the instance
// must have one value site per graph node (the plain instances of Section
// 3.2). Clusters are processed color by color; same-colored clusters fix
// their members' coins in parallel, which is sound because a 2-hop
// decomposition keeps their inclusive neighbourhoods disjoint (the paper's
// second claim in Lemma 3.4). Within a cluster, coins are fixed sequentially
// through the cluster tree (docs/ARCHITECTURE.md#substitutions,
// substitution 3).
func ByDecomposition(proc *rounding.Process, d *decomp.Decomposition, g *graph.Graph, ledger *congest.Ledger) (*rounding.Outcome, error) {
	inst := proc.Instance()
	if len(inst.X) != g.N() {
		return nil, fmt.Errorf("derand: Engine I needs node-aligned instance (%d sites, %d nodes)",
			len(inst.X), g.N())
	}
	if d.K < 2 {
		return nil, fmt.Errorf("derand: Engine I needs a K≥2 decomposition, got K=%d", d.K)
	}
	charged := 0
	for color := 0; color < d.NumColors; color++ {
		maxWork := 0
		for _, cl := range d.Clusters {
			if cl.Color != color {
				continue
			}
			work := 0
			// Deterministic member order: sorted by ID.
			members := append([]int(nil), cl.Nodes...)
			sort.Slice(members, func(a, b int) bool { return g.ID(members[a]) < g.ID(members[b]) })
			for _, v := range members {
				if proc.Unassigned(v) {
					proc.DecideCoin(v)
					work++
				}
			}
			// Each coin fix aggregates α̃-sums up and broadcasts the decision
			// down the cluster tree: 2·(radius+1) rounds.
			if w := work * 2 * (cl.Radius + 1); w > maxWork {
				maxWork = w
			}
		}
		charged += maxWork
	}
	if ledger != nil {
		ledger.Charge("derand/engineI-clusters", charged)
		ledger.Charge("derand/engineI-decomp", d.ChargedRounds)
	}
	return proc.Finalize(), nil
}
