// Quickstart: compute a deterministic dominating set approximation on a
// random graph and verify the paper's guarantee.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"congestds/internal/baseline"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

func main() {

	// A sparse random connected graph: 200 nodes, expected degree ~4.
	g := graph.GNPConnected(200, 4.0/200, 42)
	fmt.Printf("graph: %v, diameter=%d\n", g, g.Diameter())

	// Theorem 1.2: deterministic CONGEST MDS via distance-2 colorings.
	res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: mds.EngineColoring})
	if err != nil {
		log.Fatal(err)
	}
	if !verify.IsDominatingSet(g, res.Set) {
		log.Fatal("not a dominating set (bug)")
	}

	cert := verify.Certify(g, res.Set)
	greedy := baseline.Greedy(g)
	m := res.Ledger.Metrics()

	fmt.Printf("dominating set size:     %d\n", len(res.Set))
	fmt.Printf("greedy baseline size:    %d\n", len(greedy))
	fmt.Printf("certified lower bound:   %.2f  (certified ratio ≤ %.3f)\n",
		cert.LowerBound, cert.Ratio)
	fmt.Printf("paper guarantee (bound): %.3f  ((1+ε)(1+ln(Δ+1)))\n", res.Bound)
	fmt.Printf("rounds: %d measured + %d charged; %d messages, max %d bits ≤ budget %d bits\n",
		m.Rounds, m.ChargedRounds, m.Messages, m.MaxMsgBits, m.BandwidthBits)
	fmt.Printf("factor-two phases: %d (fractionality trace below)\n", len(res.Phases))
	for i, ph := range res.Phases {
		fmt.Printf("  phase %d: 1/%d-fractional -> %.5f, size %.2f -> %.2f\n",
			i, ph.R, ph.FracOut, ph.SizeIn, ph.SizeOut)
	}
}
