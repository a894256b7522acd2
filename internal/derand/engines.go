// Package derand implements the paper's two derandomization engines for the
// abstract randomized rounding process:
//
//   - Engine I (Lemma 3.4): driven by a 2-hop network decomposition; colors
//     are processed in order, same-colored clusters act in parallel (their
//     inclusive neighbourhoods are disjoint), and coins inside a cluster are
//     fixed through the cluster tree.
//   - Engine II (Lemma 3.10): ByColoring computes a distance-2 coloring of
//     the participating value sites of the instance's constraint structure
//     itself; same-colored sites decide simultaneously because they share
//     no constraint.
//
// It also builds the instances on the bipartite representation B of a
// graph (Section 3.3), where value sites remain the graph nodes (the
// right-hand copies V_R) and constraints are modified left-hand copies:
// the degree-reduced one-shot instance of Lemma 3.13 and the split
// factor-two instance of Lemma 3.14, which both engines round (Engine I
// with no split, i.e. Lemma 3.9).
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

// ByColoring derandomizes proc with Engine II (Lemma 3.10). It colours the
// unassigned sites of proc's instance at distance two in ID order (ids[j]
// is site j's ID; Lemma 3.12) and fixes their coins colour class by colour
// class. When ledger is non-nil it charges the colouring
// (derand/d2-coloring, the greedy's chain length) and then the coin fixing
// (derand/engineII-colors, one conflict round plus 2 rounds to exchange
// α̃-values per colour class), each conflict round costing Δ_L CONGEST
// rounds, the largest constraint size (Lemma 3.12's simulation), or 1 when
// local selects the LOCAL model of Corollary 1.3. Returns the outcome and
// the number of colours.
func ByColoring(proc *rounding.Process, ids []int64, ledger *congest.Ledger, local bool) (*rounding.Outcome, int) {
	inst := proc.Instance()
	part := make([]bool, len(inst.X))
	for j := range part {
		part[j] = proc.Unassigned(j)
	}
	col := coloring.Distance2Bipartite(len(part), inst.Members, part, ids)
	// Group participating sites by color.
	byColor := make([][]int, col.NumColors)
	for j, c := range col.Colors {
		if c >= 0 {
			byColor[c] = append(byColor[c], j)
		}
	}
	for _, class := range byColor {
		// Same-colored sites share no constraint, so sequential fixing below
		// is observationally identical to the paper's simultaneous decision.
		for _, j := range class {
			proc.DecideCoin(j)
		}
	}
	if ledger != nil {
		simFactor := 1
		if !local {
			for _, ms := range inst.Members {
				simFactor = max(simFactor, len(ms))
			}
		}
		ledger.Charge("derand/d2-coloring", col.Rounds*simFactor)
		ledger.Charge("derand/engineII-colors", col.NumColors*(simFactor+2))
	}
	return proc.Finalize(), col.NumColors
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
