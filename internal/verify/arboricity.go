package verify

import (
	"fmt"
	"math"

	"congestds/internal/graph"
)

// Greedy arboricity/degeneracy estimation. The degeneracy d(G) — the
// largest minimum degree over all subgraphs, computed exactly by the
// min-degree peel below — sandwiches the arboricity α(G) within a factor
// of two: α ≤ d ≤ 2α-1. That makes the peel a certified constant-factor
// arboricity estimator, which is all the O(α)-approximation checks of the
// E-arb experiments need: a bound stated against d is a bound against α up
// to the constant folded into the claim.

// Degeneracy returns the degeneracy of g: the smallest k such that every
// subgraph has a node of degree ≤ k, computed by the exact bucket-queue
// min-degree peel in O(n + m).
func Degeneracy(g *graph.Graph) int {
	return peel(g, nil)
}

// DegeneracyOrder returns the degeneracy of g together with the peel order
// (a degeneracy ordering: each node has ≤ k neighbours later in the order).
// The order is deterministic, a function of g alone: it pops a node of
// least current degree, ties going to bucket position, which starts in
// index order and is then permuted by the O(1) decrease-key swaps.
func DegeneracyOrder(g *graph.Graph) (int, []int) {
	order := make([]int, g.N())
	return peel(g, order), order
}

// peel runs the Matula–Beck smallest-last peel and returns the degeneracy;
// when order is non-nil it receives the peel order (len(order) == n).
func peel(g *graph.Graph, order []int) int {
	n := g.N()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(v))
		maxDeg = max(maxDeg, deg[v])
	}
	// Bucket queue over degrees; pos/vert give O(1) decrease-key.
	bucketStart := make([]int32, maxDeg+2)
	for _, d := range deg {
		bucketStart[d+1]++
	}
	for d := 1; d < len(bucketStart); d++ {
		bucketStart[d] += bucketStart[d-1]
	}
	vert := make([]int32, n) // nodes sorted by current degree, bucket by bucket
	pos := make([]int32, n)  // index of node v in vert
	fill := append([]int32(nil), bucketStart[:maxDeg+1]...)
	for v, d := range deg {
		pos[v] = fill[d]
		vert[pos[v]] = int32(v)
		fill[d]++
	}
	k := int32(0)
	for i, v := range vert {
		dv := deg[v]
		k = max(k, dv)
		if order != nil {
			order[i] = int(v)
		}
		// Popped degrees never decrease (a neighbour is decremented only
		// while above dv), so every node peeled before v has deg ≤ dv and
		// the test below skips it: no removed set is needed.
		for _, u := range g.Neighbors(int(v)) {
			du := deg[u]
			if du <= dv {
				continue
			}
			// Swap u with the first node of its bucket, then shrink the
			// bucket: u's degree drops by one.
			first := bucketStart[du]
			if fv := vert[first]; fv != u {
				vert[first], vert[pos[u]] = u, fv
				pos[fv], pos[u] = pos[u], first
			}
			bucketStart[du]++
			deg[u]--
		}
	}
	return int(k)
}

// ArboricityBounds returns certified lower and upper bounds on the
// arboricity of g: the Nash-Williams density floor ⌈m/(n-1)⌉ and half the
// degeneracy round up from below, against the degeneracy itself from above
// (α ≤ d(G) ≤ 2α-1).
func ArboricityBounds(g *graph.Graph) (lo, hi int) {
	d := Degeneracy(g)
	hi = d
	lo = (d + 1) / 2
	if n := g.N(); n > 1 {
		if dens := (g.M() + n - 2) / (n - 1); dens > lo {
			lo = dens
		}
	}
	if hi < 1 {
		hi = 1
	}
	if lo < 1 {
		lo = 1
	}
	return lo, hi
}

// ArbClaimBound instantiates the O(α) approximation claim of the
// bounded-arboricity MDS (Dory–Ghaffari–Ilchi, arXiv:2206.05174) with the
// explicit constant the E-arb experiments check: size ≤ (2+ε)·(2·α̂+1)·OPT,
// where α̂ is the degeneracy-based arboricity upper bound. Checked against
// the dual-packing lower bound the check is conservative twice over (the LB
// undershoots OPT, and α̂ overshoots α), so a violation is a real bug, not
// noise.
func ArbClaimBound(alphaUB int, eps float64) float64 {
	if alphaUB < 1 {
		alphaUB = 1
	}
	return (2 + eps) * float64(2*alphaUB+1)
}

// ArbCertificate is the bounded-arboricity analogue of RatioCertificate:
// the achieved size, the dual-packing lower bound on OPT, the certified
// ratio, the measured degeneracy standing in for α, and the instantiated
// O(α) claim the ratio is checked against.
type ArbCertificate struct {
	Size       int
	LowerBound float64
	Ratio      float64
	Degeneracy int
	ClaimBound float64
	OK         bool
}

// CertifyArb verifies set against the O(α) claim: it must dominate g and
// its certified ratio (size over the dual-packing LB, floored at 1) must
// stay within ArbClaimBound of the measured degeneracy.
func CertifyArb(g *graph.Graph, set []int, eps float64) ArbCertificate {
	c := ArbCertificate{Size: len(set), Degeneracy: Degeneracy(g)}
	c.ClaimBound = ArbClaimBound(c.Degeneracy, eps)
	c.LowerBound, c.Ratio = ratio(g, c.Size)
	c.OK = IsDominatingSet(g, set) && c.Ratio <= c.ClaimBound+1e-9
	return c
}

// Passed reports whether the set met the O(α) claim.
func (c ArbCertificate) Passed() bool { return c.OK }

// String renders the certificate for command-line output.
func (c ArbCertificate) String() string {
	return fmt.Sprintf("size=%d LB=%.2f ratio≤%.3f degeneracy=%d O(α)-claim=%.1f ok=%v",
		c.Size, c.LowerBound, c.Ratio, c.Degeneracy, c.ClaimBound, c.OK)
}

// RoundBoundArb returns the claimed round bound of the bounded-arboricity
// peeling algorithm for a graph with max degree delta: 4 CONGEST rounds per
// threshold phase, O(ε⁻¹·log Δ) phases, independent of n. arbmds pins its
// actual schedule length to this formula in its tests; the E-arb table
// checks measured rounds against it. eps is a resolved decay
// (arbmds.ResolveEps, arbmds.Result.Eps); values below ArbMinEps are
// clamped to it, as arbmds.Thresholds does.
func RoundBoundArb(delta int, eps float64) int {
	deltaTilde := float64(delta + 1)
	if deltaTilde < 2 {
		deltaTilde = 2
	}
	if eps < ArbMinEps {
		eps = ArbMinEps
	}
	phases := int(math.Ceil(math.Log(deltaTilde)/math.Log1p(eps))) + 2
	return 4 * phases
}

// ArbMinEps is the smallest accepted ε for the bounded-arboricity round
// accounting; arbmds.MinEps aliases it, so the threshold schedule and this
// bound always clamp identically.
const ArbMinEps = 0.01
