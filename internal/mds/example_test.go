package mds_test

import (
	"fmt"

	"congestds/internal/baseline"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// ExampleSolve computes a deterministic dominating set approximation
// (Theorem 1.2, distance-2 colourings) on a sparse random connected graph,
// certifies it against the LP-duality lower bound and the greedy baseline,
// and traces the Part II factor-two phases.
func ExampleSolve() {
	// 200 nodes, expected degree ~4.
	g := graph.GNPConnected(200, 4.0/200, 42)
	fmt.Printf("graph: %v, diameter=%d\n", g, g.Diameter())

	res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: mds.EngineColoring})
	if err != nil {
		fmt.Println(err)
		return
	}
	if !verify.IsDominatingSet(g, res.Set) {
		fmt.Println("not a dominating set")
		return
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
	// Output:
	// graph: graph(n=200, m=377, Δ=9), diameter=12
	// dominating set size:     65
	// greedy baseline size:    58
	// certified lower bound:   42.00  (certified ratio ≤ 1.548)
	// paper guarantee (bound): 4.954  ((1+ε)(1+ln(Δ+1)))
	// rounds: 850 measured + 381 charged; 2271 messages, max 48 bits ≤ budget 128 bits
	// factor-two phases: 5 (fractionality trace below)
	//   phase 0: 1/640-fractional -> 0.00315, size 54.73 -> 55.01
	//   phase 1: 1/318-fractional -> 0.00634, size 55.01 -> 55.27
	//   phase 2: 1/158-fractional -> 0.01277, size 55.27 -> 55.57
	//   phase 3: 1/79-fractional -> 0.02573, size 55.57 -> 55.90
	//   phase 4: 1/39-fractional -> 0.05183, size 55.90 -> 56.27
}

// ExampleSolve_unitDisk elects cluster heads in an ad-hoc sensor network,
// the paper's motivating application: 300 sensors scattered in the unit
// square form a unit-disk graph, and a dominating set puts a head in radio
// range of every sensor. Both derandomization engines (Theorems 1.1 and
// 1.2) run against the centralized greedy reference.
func ExampleSolve_unitDisk() {
	// Radio radius chosen to keep the network connected.
	g := graph.UnitDiskConnected(300, 0.11, 7)
	fmt.Printf("sensor network: %v\n", g)

	var heads int
	for _, engine := range []mds.Engine{mds.EngineDecomposition, mds.EngineColoring} {
		res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: engine})
		if err != nil {
			fmt.Println(err)
			return
		}
		if !verify.IsDominatingSet(g, res.Set) {
			fmt.Println("invalid cluster-head set")
			return
		}
		cert := verify.Certify(g, res.Set)
		fmt.Printf("%-24s heads=%-4d certified-ratio≤%.3f guarantee=%.3f rounds=%d\n",
			engine, len(res.Set), cert.Ratio, res.Bound,
			res.Ledger.Metrics().TotalRounds())
		heads = len(res.Set)
	}
	greedy := baseline.Greedy(g)
	fmt.Printf("%-24s heads=%d (centralized reference)\n", "greedy", len(greedy))

	// Average cluster size under the coloring engine (the default).
	fmt.Printf("average cluster size: %.1f sensors per head\n",
		float64(g.N())/float64(heads))
	// Output:
	// sensor network: graph(n=300, m=1542, Δ=20)
	// decomposition(Thm1.1)    heads=49   certified-ratio≤1.885 guarantee=6.067 rounds=2524
	// coloring(Thm1.2)         heads=49   certified-ratio≤1.885 guarantee=6.067 rounds=4280
	// greedy                   heads=38 (centralized reference)
	// average cluster size: 6.1 sensors per head
}
