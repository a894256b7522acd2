package cds_test

import (
	"fmt"

	"congestds/internal/cds"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// ExampleSolve builds a routing backbone: a connected dominating set
// (Theorem 1.4) of a mesh is a virtual backbone, since every node is
// adjacent to it and it is connected, so any two nodes can communicate
// through it.
func ExampleSolve() {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus 12x12", graph.Torus(12, 12)},
		{"grid 15x15", graph.Grid(15, 15)},
		{"unit disk n=250", graph.UnitDiskConnected(250, 0.12, 3)},
	} {
		res, err := cds.Solve(tt.g, mds.Params{Eps: 0.5})
		if err != nil {
			fmt.Println(err)
			return
		}
		if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
			fmt.Printf("%s: invalid backbone: %v\n", tt.name, err)
			return
		}
		fmt.Printf("%-18s n=%-4d backbone=%-4d (dominating set %d + %d connectors, %d clusters)\n",
			tt.name, tt.g.N(), len(res.CDS), len(res.DS),
			len(res.CDS)-len(res.DS), len(res.RulingSet))
		fmt.Printf("%-18s guarantee ≤ %.2f·OPT, |CDS| ≤ 3·|DS| holds: %v, rounds=%d\n",
			"", res.Bound, len(res.CDS) <= 3*len(res.DS),
			res.Ledger.Metrics().TotalRounds())
	}
	// Output:
	// torus 12x12        n=144  backbone=94   (dominating set 44 + 50 connectors, 1 clusters)
	//                    guarantee ≤ 11.74·OPT, |CDS| ≤ 3·|DS| holds: true, rounds=655
	// grid 15x15         n=225  backbone=151  (dominating set 71 + 80 connectors, 2 clusters)
	//                    guarantee ≤ 11.74·OPT, |CDS| ≤ 3·|DS| holds: true, rounds=733
	// unit disk n=250    n=250  backbone=79   (dominating set 41 + 38 connectors, 1 clusters)
	//                    guarantee ≤ 17.25·OPT, |CDS| ≤ 3·|DS| holds: true, rounds=3417
}
