// Package mcds implements a connected-dominating-set solver following the
// two-phase structure of Ghaffari, "Near-Optimal Distributed Approximation
// of Minimum-Weight Connected Dominating Set" (arXiv:1404.7559, ICALP
// 2014): first construct a dominating set, then connect the dominators via
// shortest dominator-to-dominator paths, charging the connectors against
// the LP lower bound. It is the third algorithm family in the repository
// (after the source paper's pipeline in internal/mds+cds and the
// bounded-arboricity peeling in internal/arbmds), and like arbmds it is
// written natively as a congest.StepProgram with an independently written
// blocking twin for differential testing, so million-node instances run on
// congest.EngineStepped in bounded memory.
//
// The connector is Ghaffari's, not the source paper's Section 4 transform
// (Thm 1.4): it orients along a BFS tree, so it needs D̂ + 2 rounds where
// Section 4 has no diameter term. internal/cds runs Section 4 host-level
// with charged rounds. Solve always runs all three phases.
//
// # Restrictions and assumptions
//
// Ghaffari's paper solves the minimum-WEIGHT CDS problem. This
// implementation is the unit-weight restriction: internal/graph carries no
// edge or node weights, so |CDS| stands in for the weight and the LP lower
// bound specializes to verify.DualPackingLB (a feasible dual packing for
// the unweighted domination LP; OPT_CDS ≥ OPT_DS ≥ LB). Extending
// internal/graph with weights would generalize phase 1 to a weighted
// greedy and the charge to a weighted dual — the protocol skeleton below
// would not change.
//
// Nodes know n and Δ (the repository-wide standard assumption) and an
// upper bound D̂ on the network diameter (Params.DiamBound; the known-D
// assumption common in CONGEST literature — D̂ = n always works and is the
// default, callers with topology knowledge pass a tighter bound to cut the
// orientation phase short).
//
// # Algorithm
//
// Phase 1 — dominate (4·|schedule| rounds, a pure function of (Δ, ε)):
// the nominated threshold-sweep greedy. Thresholds sweep
// Δ̃, Δ̃/(1+ε), …, 1; a node's support s(v) counts the white (not yet
// dominated) nodes in its closed neighbourhood; each threshold phase runs
// the report/offer/nominate/join segments of the bounded-arboricity
// peeling. The phase is internal/arbmds's own code (arbmds.Peel in the
// stepped form, arbmds.PeelBlocking in the blocking one), so DS is exactly
// arbmds's set; on general graphs the same protocol is the classic
// distributed greedy whose size tracks the (1+ε)(1+ln Δ̃)·OPT regime the
// E-mcds experiments check empirically against the dual-packing LB.
//
// Phase 2 — orient (D̂ rounds): a flood-min BFS. Every node floods the
// smallest identifier it has seen together with its distance from that
// node; when the flood stabilizes every node knows its parent toward the
// BFS tree rooted at the minimum-ID node of its component. Messages carry
// one ID and one distance, within the CONGEST budget.
//
// Phase 3 — connect (2 rounds): every dominator at BFS depth ≥ 1 sends a
// connect token to its parent; a node receiving a token joins the CDS and
// forwards the token one more hop toward the root. This realizes, for each
// dominator v, the shortest dominator-to-dominator path of length ≤ 3 from
// v to a dominator strictly closer to the root: v's grandparent g is
// dominated by some u ∈ N⁺(g) with depth(u) < depth(v), and v–parent–g–u
// lies inside the CDS. Induction over depths makes the CDS connected
// (per component), and each dominator adds at most 2 connectors, so
// |CDS| ≤ 3·|DS| + 1 — the same shape as the source paper's Section 4
// bound, with the connector paths charged against the LP lower bound in
// the E-mcds tables (ratio ≤ verify.MCDSClaimBound).
//
// The full run takes exactly 4·|schedule| + D̂ + 2 rounds.
package mcds

import (
	"fmt"

	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

// Params configures Solve.
type Params struct {
	// Eps is the threshold decay of the dominating phase, exactly as in
	// arbmds.Params: zero means arbmds.DefaultEps, values below
	// arbmds.MinEps are clamped, and a negative or non-finite ε is
	// rejected.
	Eps float64
	// DiamBound is D̂, the known upper bound on the graph diameter that
	// sizes the orientation phase. Zero means n (always safe). D̂ sets the
	// round count, not the work: the flood's nodes sleep once it settles,
	// so D̂ = n adds rounds in which nothing is due but no node-steps
	// (uforest 10⁵: the same 1.91M node-steps as 2·ecc+2 and 100,038
	// rounds instead of 58, in ~0.75 s either way on a 2-core Xeon).
	// Callers with topology knowledge (e.g. 2·ecc(v)+2 from a host-side
	// BFS, see graph.Eccentricity) pass a tighter bound to keep the round
	// count down. A negative bound is rejected.
	DiamBound int
	// MaxRounds clamps the simulated run (zero or negative: the simulator
	// default); mdsd's maxrounds query parameter sets it through
	// family.Params.
	MaxRounds int
	// Run is the execution context, exactly as in arbmds.Params: Sim
	// selects the engine, Ctx cancels at round boundaries with
	// congest.ErrDeadline, and Observer receives per-round telemetry.
	congest.Run
}

// withDefaults rejects parameters no run can honour and normalizes the
// zero values against the target graph.
func (p Params) withDefaults(g *graph.Graph) (Params, error) {
	eps, err := arbmds.ResolveEps(p.Eps)
	if err != nil {
		return p, fmt.Errorf("mcds: %w", err)
	}
	p.Eps = eps
	switch {
	case p.DiamBound < 0:
		return p, fmt.Errorf("%w: mcds: diam=%d is negative (0 selects n)", congest.ErrConfig, p.DiamBound)
	case p.DiamBound == 0:
		p.DiamBound = max(g.N(), 1)
	}
	return p, nil
}

// Result is the outcome of a run.
type Result struct {
	// CDS is the connected dominating set, ascending.
	CDS []int
	// DS is the phase-1 dominating set behind it, ascending.
	DS []int
	// Thresholds is the phase-1 schedule (4 rounds per threshold).
	Thresholds []int
	// Eps is the ε the schedule was built from: Params.Eps after
	// arbmds.ResolveEps.
	Eps float64
	// DiamBound is the D̂ the orientation phase actually used.
	DiamBound int
	// Metrics is the simulator's cost account. For Solve,
	// Metrics.Rounds = 4·len(Thresholds) + DiamBound + 2 exactly.
	Metrics congest.Metrics
}

// Solve computes a connected dominating set of the connected graph g under
// the selected engine. The program runs natively as a StepProgram on
// congest.EngineStepped and via the blocking adapter on
// congest.EngineGoroutine, with byte-identical results. The returned set is
// verified connected and dominating before Solve returns (a linear-time
// check; callers wanting the ratio certificate run verify.CertifyCDS on
// top). A disconnected g is caller misuse: the error wraps
// congest.ErrConfig.
func Solve(g *graph.Graph, p Params) (*Result, error) {
	p, err := p.withDefaults(g)
	if err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return &Result{}, nil
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("%w: mcds: graph is not connected", congest.ErrConfig)
	}
	net := congest.NewNetwork(g, p.Run.Config(p.MaxRounds))
	inD := make([]bool, g.N())
	inCDS := make([]bool, g.N())
	m, err := net.RunStepped(StepFactory(g, p.Eps, p.DiamBound, inD, inCDS))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Thresholds: arbmds.Thresholds(g.MaxDegree(), p.Eps),
		Eps:        p.Eps,
		DiamBound:  p.DiamBound,
		Metrics:    m,
	}
	for v := range inCDS {
		if inCDS[v] {
			res.CDS = append(res.CDS, v)
		}
		if inD[v] {
			res.DS = append(res.DS, v)
		}
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		return nil, fmt.Errorf("mcds: internal: %w (DiamBound %d below the true diameter?)", err, p.DiamBound)
	}
	return res, nil
}
