package verify

import (
	"fmt"
	"math"

	"congestds/internal/graph"
)

// Connected-dominating-set certificates. A CDS certificate bundles the
// hard structural checks (domination + induced connectivity, both linear
// time) with the LP-duality ratio: OPT_CDS ≥ OPT_DS ≥ DualPackingLB, so
// size/LB upper-bounds the true CDS approximation ratio. The claim bound
// the E-mcds experiments check against is the instantiated O(log Δ) claim
// of the Ghaffari-style two-phase construction (internal/mcds): the
// dominating phase tracks the greedy (1+ε)(1+ln(Δ̃+1)) regime, and the
// connection phase adds at most two connectors per dominator plus the
// root, hence the factor 3.

// CDSCertificate is the connected analogue of RatioCertificate.
type CDSCertificate struct {
	Size       int
	LowerBound float64
	Ratio      float64
	ClaimBound float64
	Connected  bool
	Dominating bool
	OK         bool
}

// CertifyCDS verifies set as a connected dominating set of g and checks
// its certified ratio (size over the dual-packing LB, floored at 1)
// against claimBound. A claimBound ≤ 0 skips the ratio check (structural
// checks only).
func CertifyCDS(g *graph.Graph, set []int, claimBound float64) CDSCertificate {
	c := CDSCertificate{Size: len(set), ClaimBound: claimBound}
	c.Dominating = IsDominatingSet(g, set)
	c.Connected = IsConnectedSet(g, set)
	return c.withRatio(g, claimBound)
}

// CertifyCDSVerified returns the certificate for a set that is already
// known connected and dominating — mcds.Solve verifies its output with
// CheckCDS before returning, so certifying such a result only needs the
// LP ratio. Skipping the redundant structural BFS passes matters at 10⁶
// nodes, where they would double the post-solve wall-clock.
func CertifyCDSVerified(g *graph.Graph, set []int, claimBound float64) CDSCertificate {
	c := CDSCertificate{Size: len(set), ClaimBound: claimBound, Dominating: true, Connected: true}
	return c.withRatio(g, claimBound)
}

// withRatio fills the dual-packing ratio and the verdict from the already
// populated structural fields.
func (c CDSCertificate) withRatio(g *graph.Graph, claimBound float64) CDSCertificate {
	c.LowerBound, c.Ratio = ratio(g, c.Size)
	c.OK = c.Dominating && c.Connected &&
		(claimBound <= 0 || c.Ratio <= claimBound+1e-9)
	return c
}

// Passed reports whether the set is a connected dominating set within the
// claim bound.
func (c CDSCertificate) Passed() bool { return c.OK }

// String renders the certificate for command-line output.
func (c CDSCertificate) String() string {
	return fmt.Sprintf("size=%d LB=%.2f ratio≤%.3f claim=%.1f connected=%v dominating=%v ok=%v",
		c.Size, c.LowerBound, c.Ratio, c.ClaimBound, c.Connected, c.Dominating, c.OK)
}

// CheckCDSComponents verifies the componentwise CDS conditions: set must
// dominate g, and its members must induce a connected subgraph within
// every connected component of g. On a connected graph this is exactly
// CheckCDS; the componentwise form is the guarantee mcds's program forms
// give on arbitrary graphs (one CDS per component), which the conformance
// suite checks on its disconnected corpus graphs, and it catches a
// mis-oriented run (a diameter bound below the true diameter) where
// whole-graph connectivity is undefined.
func CheckCDSComponents(g *graph.Graph, set []int) error {
	if err := CheckDominating(g, set); err != nil {
		return err
	}
	comp, count := g.Components()
	members := make([][]int, count)
	for _, v := range set {
		members[comp[v]] = append(members[comp[v]], v)
	}
	for ci, sub := range members {
		if !IsConnectedSet(g, sub) {
			return fmt.Errorf("verify: induced subgraph not connected within component %d", ci)
		}
	}
	return nil
}

// MCDSClaimBound instantiates the approximation claim the E-mcds tables
// check: |CDS| ≤ 3·(1+ε)·(1+ln(Δ̃+1))·OPT. The greedy dominating phase is
// checked against the (1+ε)(1+ln(Δ̃+1)) regime of the source paper's
// Theorem 1.1 bound shape, and the two-hop connection triples it (at most
// two connectors per dominator, |CDS| ≤ 3|DS|+1). eps is a resolved decay
// (arbmds.ResolveEps, mcds.Result.Eps).
func MCDSClaimBound(delta int, eps float64) float64 {
	deltaTilde := float64(delta + 1)
	if deltaTilde < 1 {
		deltaTilde = 1
	}
	return 3 * (1 + eps) * (1 + math.Log(deltaTilde+1))
}

// RoundBoundMCDS returns the claimed round bound of the two-phase MCDS
// construction for max degree delta, decay eps and diameter bound diam:
// the peeling bound (4 rounds per threshold, O(ε⁻¹·log Δ̃) thresholds)
// plus diam orientation rounds plus the two connect rounds. mcds.Solve
// pins its measured rounds to exactly 4·|schedule| + diam + 2 ≤ this.
func RoundBoundMCDS(delta int, eps float64, diam int) int {
	if diam < 1 {
		diam = 1
	}
	return RoundBoundArb(delta, eps) + diam + 2
}
