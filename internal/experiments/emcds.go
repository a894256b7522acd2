package experiments

import (
	"fmt"

	"congestds/internal/arbmds"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// E-mcds is the experiment table for the third algorithm family: the
// connected-dominating-set solver of the mcds family (Ghaffari,
// arXiv:1404.7559, unit-weight restriction) against the source paper's
// Section 4 CDS construction (the cds family, over the Theorem 1.2
// pipeline). Three claims are checked per row:
//
//   - validity: the family's verify.CDSCertificate passes — connected,
//     dominating, and within the instantiated claim 3·(1+ε)(1+ln(Δ̃+1))
//     against the dual-packing lower bound (LB ≤ OPT_DS ≤ OPT_CDS, so the
//     check is conservative);
//   - structure: |CDS| ≤ 3·|DS|+1 — at most two connectors per dominator
//     plus the root, the charge against the LP bound;
//   - rounds: measured rounds = 4·|arbmds.Thresholds(Δ, ε)| + D̂ + 2
//     exactly, at most verify.RoundBoundMCDS(Δ, ε, D̂), with
//     D̂ = 2·ecc(0)+2 from one host-side BFS (the known-diameter
//     assumption).
//
// The table stops at ~500 nodes; the 10⁶-node run is
// `mdsrun -family uforest -n 1000000 -algo mcds` (and the memsmoke CI job).

// emcdsEps is the threshold decay parameter every E-mcds row uses.
const emcdsEps = 0.5

// emcdsFamilies returns the connected suite at the given sizes.
func emcdsFamilies(sizes []int) []familyCase {
	return sizedSuite(sizes, func(n int) []familyCase {
		return []familyCase{
			{"gnp", n, graph.GNPConnected(n, 4.0/float64(n), 1)},
			{"grid", n, graph.Grid(isqrt(n), isqrt(n))},
			{"ba", n, graph.BarabasiAlbert(n, 2, 2)},
			{"caterpillar", n, graph.Caterpillar(n/5, 4)},
		}
	})
}

// EMcds validates the two-phase MCDS claims on the CI-sized suite.
func EMcds(quick bool) *Table {
	t := &Table{
		ID:     "E-mcds",
		Claim:  "Ghaffari'14 (unit weights): CDS ≤ 3|DS|+1, ratio ≤ 3(1+ε)(1+lnΔ̃⁺) vs LB, rounds = 4·|schedule|+D̂+2",
		Header: []string{"family", "n", "Δ", "D̂", "|DS|", "|CDS|", "3|DS|+1", "|paper|", "OPT-lb", "ratio≤", "claim", "rounds", "r-bound", "ok"},
	}
	sizes := []int{128, 512}
	if quick {
		sizes = []int{48, 192}
	}
	for _, fam := range emcdsFamilies(sizes) {
		g := fam.G
		diam := g.DiamBound()
		res, err := solve("mcds", g, family.Params{Eps: emcdsEps, DiamBound: diam})
		if err != nil {
			t.errorRow(fam.Name, err)
			continue
		}
		paperSize := sizeOf("cds", g, emcdsEps)
		cert := res.Cert.(verify.CDSCertificate)
		rBound := verify.RoundBoundMCDS(g.MaxDegree(), emcdsEps, diam)
		ok := cert.OK &&
			len(res.Set) <= 3*len(res.DS)+1 &&
			res.Rounds == 4*len(arbmds.Thresholds(g.MaxDegree(), emcdsEps))+diam+2 &&
			res.Rounds <= rBound
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(g.N()), fmt.Sprint(g.MaxDegree()), fmt.Sprint(diam),
			fmt.Sprint(len(res.DS)), fmt.Sprint(len(res.Set)), fmt.Sprint(3*len(res.DS) + 1),
			paperSize,
			fmt.Sprintf("%.1f", cert.LowerBound),
			fmt.Sprintf("%.3f", cert.Ratio), fmt.Sprintf("%.1f", cert.ClaimBound),
			fmt.Sprint(res.Rounds), fmt.Sprint(rBound),
			fmt.Sprint(ok),
		})
	}
	return t
}
