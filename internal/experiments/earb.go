package experiments

import (
	"fmt"

	"congestds/internal/arbmds"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// E-arb is the first experiment table for an algorithm family beyond the
// source paper: the bounded-arboricity peeling MDS of Dory–Ghaffari–Ilchi
// (arXiv:2206.05174, the arbmds family) against the paper's LP-rounding
// pipeline (thm1.2) and the sequential greedy baseline, on
// graph families with an arboricity witness by construction. Two claims
// are checked per row:
//
//   - approximation: |DS| ≤ (2+ε)(2α̂+1) · LB, the instantiated O(α) claim
//     with α̂ the measured degeneracy (α ≤ α̂ ≤ 2α-1) and LB the
//     dual-packing lower bound (LB ≤ OPT), so the check is conservative
//     twice over;
//   - rounds: measured rounds = 4·|arbmds.Thresholds(Δ, ε)|, at most
//     verify.RoundBoundArb(Δ, ε) — a function of (Δ, ε) only. Each family
//     appears at two sizes; for gridx (Δ fixed by construction) the two
//     rows must report the *same* round count, pinning the
//     n-independence claim directly.
//
// The table stops at ~500 nodes; the 10⁶-node run is
// `mdsrun -family uforest -n 1000000 -algo arbmds` (and the memsmoke CI
// job).

// earbEps is the threshold decay parameter every E-arb row uses.
const earbEps = 0.5

// earbFamilies returns the bounded-arboricity suite at the given sizes.
func earbFamilies(sizes []int) []familyCase {
	return sizedSuite(sizes, func(n int) []familyCase {
		side := isqrt(n)
		return []familyCase{
			{"uforest", n, graph.UnionForests(n, graph.DefaultArbAlpha, 7)},
			{"gridx", n, graph.GridDiagonals(side, side)},
			{"adag", n, graph.RandomOutDAG(n, graph.DefaultArbAlpha, 7)},
			{"caterpillar", n, graph.Caterpillar(n/5, 4)},
		}
	})
}

// EArb validates the bounded-arboricity claims on the CI-sized suite.
func EArb(quick bool) *Table {
	t := &Table{
		ID:     "E-arb",
		Claim:  "DGI'22: peeling MDS ≤ O(α)·OPT in O(ε⁻¹·logΔ) rounds, independent of n",
		Header: []string{"family", "n", "Δ", "α̂", "|arb|", "|paper|", "greedy", "OPT-lb", "ratio≤", "O(α)-claim", "rounds", "r-bound", "ok"},
	}
	sizes := []int{128, 512}
	if quick {
		sizes = []int{48, 192}
	}
	gridxRounds := map[int]int{} // size index → rounds, for the n-independence pin
	for _, fam := range earbFamilies(sizes) {
		g := fam.G
		res, err := solve("arbmds", g, family.Params{Eps: earbEps})
		if err != nil {
			t.errorRow(fam.Name, err)
			continue
		}
		paperSize := sizeOf("thm1.2", g, earbEps)
		greedySize := sizeOf("greedy", g, earbEps)
		cert := res.Cert.(verify.ArbCertificate)
		rBound := verify.RoundBoundArb(g.MaxDegree(), earbEps)
		ok := cert.OK &&
			res.Rounds == 4*len(arbmds.Thresholds(g.MaxDegree(), earbEps)) &&
			res.Rounds <= rBound
		if fam.Name == "gridx" {
			gridxRounds[fam.N] = res.Rounds
		}
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(g.N()), fmt.Sprint(g.MaxDegree()),
			fmt.Sprint(cert.Degeneracy),
			fmt.Sprint(len(res.Set)), paperSize, greedySize,
			fmt.Sprintf("%.1f", cert.LowerBound),
			fmt.Sprintf("%.3f", cert.Ratio), fmt.Sprintf("%.1f", cert.ClaimBound),
			fmt.Sprint(res.Rounds), fmt.Sprint(rBound),
			fmt.Sprint(ok),
		})
	}
	// n-independence pin: gridx has Δ=8 at every size, so its round count
	// must not move between the two sizes.
	first, same := -1, true
	for _, r := range gridxRounds {
		if first < 0 {
			first = r
		} else if r != first {
			same = false
		}
	}
	if !same {
		t.Violations++
		t.Rows = append(t.Rows, []string{"gridx", "-", "-", "-", "-", "-", "-", "-", "-", "-",
			fmt.Sprint(gridxRounds), "-", "ROUNDS DEPEND ON n"})
	}
	return t
}
