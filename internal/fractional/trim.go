package fractional

import (
	"congestds/internal/coloring"
	"congestds/internal/congest"
	"congestds/internal/fixpoint"
	"congestds/internal/graph"
)

// trim removes redundancy from a feasible fractional dominating set: every
// node lowers its value to the largest reduction that keeps all constraints
// in its inclusive neighbourhood satisfied. Nodes act in the color classes
// of a proper coloring of G² (same-colored nodes are at distance ≥ 3, so
// their inclusive neighbourhoods are disjoint and simultaneous trimming is
// safe). The G² coloring is the distance-two coloring of the closed
// neighbourhoods: u and v share some N[w] iff d(u,v) ≤ 2, so G² itself is
// never built. Feasibility is preserved exactly; the size never increases.
//
// One pass over the color classes is exact: when v acts it cuts
// min(slack, x_v), after which x_v = 0 or some constraint in N[v] has zero
// slack. Later cuts only lower coverage, so that stays true, and a second
// pass would cut nothing.
//
// This is the local-ratio cleanup inside Initial (see
// docs/ARCHITECTURE.md#substitutions, substitution 4): the
// threshold-batched greedy over-raises when many candidates cover the same
// constraint, and trimming recovers most of that slack with colors(G²)
// extra rounds.
func trim(g *graph.Graph, fds *CFDS, ledger *congest.Ledger) {
	n := g.N()
	if n == 0 {
		return
	}
	ctx := fds.Ctx
	one := ctx.One()
	all := make([]bool, n)
	for v := range all {
		all[v] = true
	}
	col := coloring.Distance2Bipartite(n, g.ClosedNeighborhoods(), all, g.IDs())
	// Current coverage per constraint.
	cov := make([]fixpoint.Value, n)
	for v := 0; v < n; v++ {
		cov[v] = fds.Coverage(g, v)
	}
	for _, class := range col.Classes() {
		for _, v := range class {
			if fds.X[v] == 0 {
				continue
			}
			// Maximum reduction: the minimum slack among the inclusive
			// neighbourhood constraints v contributes to.
			slack := ctx.SubFloor(cov[v], one)
			for _, u := range g.Neighbors(v) {
				if s := ctx.SubFloor(cov[u], one); s < slack {
					slack = s
				}
			}
			cut := fixpoint.Min(slack, fds.X[v])
			if cut == 0 {
				continue
			}
			fds.X[v] -= cut
			cov[v] -= cut
			for _, u := range g.Neighbors(v) {
				cov[u] -= cut
			}
		}
	}
	if ledger != nil {
		// One round per color class (trim decisions are local; the new
		// values are broadcast to neighbours), plus the G²-coloring.
		ledger.Charge("partI/trim", col.NumColors+col.Rounds)
	}
}
