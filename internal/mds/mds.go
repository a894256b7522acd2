// Package mds implements the paper's deterministic CONGEST dominating set
// approximation algorithms (Section 3.4):
//
//   - Theorem 1.1: derandomization via network decomposition (Engine I),
//   - Theorem 1.2: derandomization via distance-2 colorings of split
//     bipartite graphs (Engine II),
//   - Corollary 1.3: the LOCAL-model variant of Theorem 1.2.
//
// Every algorithm follows the paper's three parts: (I) an initial fractional
// dominating set with fractionality ε/(2Δ̃) (Lemma 2.1); (II) O(log Δ)
// factor-two rounding phases that double the fractionality while inflating
// the size by (1+ε₂) each (Lemmas 3.9/3.14); (III) one one-shot rounding to
// an integral dominating set, losing a ln(Δ̃) factor (Lemmas 3.8/3.13).
package mds

import (
	"fmt"
	"math"

	"congestds/internal/congest"
	"congestds/internal/decomp"
	"congestds/internal/derand"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// Engine selects the derandomization engine.
type Engine int

// Engines.
const (
	// EngineDecomposition is Theorem 1.1 (network decomposition, CONGEST).
	EngineDecomposition Engine = iota + 1
	// EngineColoring is Theorem 1.2 (distance-2 colorings, CONGEST).
	EngineColoring
	// EngineColoringLocal is Corollary 1.3 (colorings, LOCAL model: no
	// bipartite simulation overhead is charged).
	EngineColoringLocal
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineDecomposition:
		return "decomposition(Thm1.1)"
	case EngineColoring:
		return "coloring(Thm1.2)"
	case EngineColoringLocal:
		return "coloring-local(Cor1.3)"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Preset selects the parameter regime (see
// docs/ARCHITECTURE.md#parameter-regimes).
type Preset int

// Presets.
const (
	// Practical uses modest constants; the default for benchmarks.
	Practical Preset = iota
	// Theory uses the paper's worst-case constants (r ≥ 256·ε⁻³·ln Δ̃,
	// s = 64·ε⁻²·ln Δ̃, ε₂ = ε₁/(100ρ)).
	Theory
)

// maxPhases caps Part II (safety; the fractionality doubles each phase, so
// ~log₂Δ phases suffice).
const maxPhases = 64

// DefaultEps is the ε of Theorems 1.1/1.2 a zero Params.Eps selects.
const DefaultEps = 0.5

// Params configures Solve.
type Params struct {
	// Eps is the ε of Theorems 1.1/1.2; the approximation guarantee is
	// (1+ε)(1+ln(Δ+1)). Zero means DefaultEps; anything outside (0, 1]
	// wraps congest.ErrConfig.
	Eps float64
	// Engine selects the derandomization engine. Zero means EngineColoring.
	Engine Engine
	// Preset selects Theory or Practical constants.
	Preset Preset
	// Run is the execution context of the measured phases. Sim selects the
	// engine (zero: congest.EngineStepped, where the Part I covering
	// program runs with no per-node goroutine); it changes wall-clock speed
	// and memory only, never results or round counts. One Ctx bounds the
	// whole multi-part solve: Part I and every Part II phase share the
	// budget. Observer sees each simulated run as one segment.
	congest.Run
}

// PhaseInfo records one Part II phase for the experiment harness (E4).
type PhaseInfo struct {
	R         uint64  // the input was 1/R-fractional
	SizeIn    float64 // FDS size before the phase
	SizeOut   float64 // FDS size after the phase
	FracIn    float64 // fractionality before
	FracOut   float64 // fractionality after
	NumColors int     // distance-2 colors (Engine II) or decomposition colors
}

// Result is the output of Solve.
type Result struct {
	// Set is the computed dominating set (node indices).
	Set []int
	// Bound is the guaranteed approximation factor (1+ε)(1+ln(Δ+1)).
	Bound float64
	// InitialSize is the Part I fractional size (an upper bound proxy for
	// (1+ε₁)·OPT_f under the Part I substitute, cf.
	// docs/ARCHITECTURE.md#substitutions, substitution 4).
	InitialSize float64
	// Phases traces Part II.
	Phases []PhaseInfo
	// Ledger carries measured and charged round/bit costs of all parts.
	Ledger *congest.Ledger
}

// Solve runs the selected deterministic MDS approximation pipeline on g.
func Solve(g *graph.Graph, p Params) (*Result, error) {
	if p.Eps == 0 {
		p.Eps = DefaultEps
	}
	if !(p.Eps > 0 && p.Eps <= 1) {
		return nil, fmt.Errorf("%w: mds: eps=%v out of (0,1]", congest.ErrConfig, p.Eps)
	}
	if p.Engine == 0 {
		p.Engine = EngineColoring
	}
	if p.Engine < EngineDecomposition || p.Engine > EngineColoringLocal {
		return nil, fmt.Errorf("%w: mds: unknown %v", congest.ErrConfig, p.Engine)
	}
	if p.Preset != Practical && p.Preset != Theory {
		return nil, fmt.Errorf("%w: mds: unknown Preset(%d)", congest.ErrConfig, int(p.Preset))
	}
	n := g.N()
	res := &Result{Ledger: &congest.Ledger{}}
	if n == 0 {
		return res, nil
	}
	delta := g.MaxDegree()
	deltaTilde := float64(delta + 1)
	res.Bound = Bound(p.Eps, delta)

	// Parameter schedule (proof of Theorem 1.1/1.2 in Section 3.4).
	rho := math.Max(1, math.Log2(deltaTilde/p.Eps))
	eps1 := math.Min(p.Eps/16, 0.25)
	var eps2 float64
	var fTarget uint64
	var splitS int
	lnD := math.Log(deltaTilde + 1)
	switch p.Preset {
	case Theory:
		eps2 = eps1 / (100 * rho)
		fTarget = uint64(math.Ceil(256 * math.Pow(p.Eps, -3) * lnD))
		splitS = int(math.Ceil(64 * math.Pow(eps2, -2) * lnD))
	default:
		eps2 = eps1 / rho
		fTarget = uint64(math.Ceil(4 * lnD / p.Eps))
		splitS = int(math.Ceil(2 * lnD))
	}
	if fTarget < 2 {
		fTarget = 2
	}
	if splitS < 2 {
		splitS = 2
	}

	// Part I: the trimmed ε₁/(2Δ̃)-fractional dominating set (Lemma 2.1).
	net := congest.NewNetwork(g, p.Run.Config(0))
	fds, err := fractional.Initial(net, res.Ledger, eps1)
	if err != nil {
		return nil, fmt.Errorf("mds: part I: %w", err)
	}
	res.InitialSize = fds.SizeFloat()

	// Engine I precomputes one 2-hop decomposition and reuses it for every
	// phase (the paper computes it once as well), so its rounds are charged
	// once, here. It rounds Lemma 3.9's instance: Lemma 3.14's with a split
	// size no N[v] reaches.
	var dec *decomp.Decomposition
	if p.Engine == EngineDecomposition {
		dec = decomp.Build(g)
		res.Ledger.Charge("derand/engineI-decomp", dec.ChargedRounds)
		splitS = delta + 2
	}

	ctx := fds.Ctx
	lnMul := ctx.FromFloat(lnD)

	// Part II: factor-two phases until the solution is 1/fTarget-fractional;
	// then Part III: one-shot rounding to an integral solution.
	for phase := 0; ; phase++ {
		frac := fds.Fractionality()
		if frac == 0 {
			return nil, fmt.Errorf("mds: part II: zero fractional solution")
		}
		inv := uint64(ctx.DivDown(ctx.One(), frac))
		r := inv >> ctx.Scale()
		if inv&(uint64(ctx.One())-1) != 0 {
			r++ // ceil(1/frac)
		}
		final := r <= fTarget
		var inst *rounding.Instance
		switch {
		case !final && phase >= maxPhases:
			return nil, fmt.Errorf("mds: part II did not converge after %d phases (r=%d, target=%d)",
				phase, r, fTarget)
		case !final:
			inst, err = derand.FactorTwoBipartite(g, fds, eps2, r, splitS)
		case dec != nil:
			inst = rounding.OneShotOnGraph(g, fds, lnMul)
		default:
			// The current fractionality 1/r with r ≤ fTarget bounds the
			// covering sets of Lemma 3.13.
			inst, err = derand.OneShotBipartite(g, fds, fTarget, lnMul)
		}
		if err != nil {
			return nil, stageErr(final, phase, err)
		}
		proc, err := rounding.NewProcess(inst)
		if err != nil {
			return nil, stageErr(final, phase, err)
		}
		info := PhaseInfo{R: r, SizeIn: fds.SizeFloat(), FracIn: ctx.Float(frac)}
		var out *rounding.Outcome
		if dec != nil {
			info.NumColors = dec.NumColors
			if out, err = derand.ByDecomposition(proc, dec, g, res.Ledger); err != nil {
				return nil, stageErr(final, phase, err)
			}
		} else {
			out, info.NumColors = derand.ByColoring(proc, g.IDs(), res.Ledger, p.Engine == EngineColoringLocal)
		}
		fds = derand.FDSFromOutcome(ctx, out)
		if final {
			break
		}
		info.SizeOut = fds.SizeFloat()
		info.FracOut = ctx.Float(fds.Fractionality())
		res.Phases = append(res.Phases, info)
	}
	if !fds.Integral() {
		return nil, fmt.Errorf("mds: part III produced a non-integral solution")
	}
	if err := fds.Check(g); err != nil {
		return nil, fmt.Errorf("mds: output not dominating: %w", err)
	}
	res.Set = fds.Set()
	return res, nil
}

// stageErr names the failing Part II phase, or Part III when final.
func stageErr(final bool, phase int, err error) error {
	if final {
		return fmt.Errorf("mds: part III: %w", err)
	}
	return fmt.Errorf("mds: phase %d: %w", phase, err)
}

// Bound returns the approximation guarantee (1+ε)(1+ln(Δ+1)) for a graph
// with maximum degree delta.
func Bound(eps float64, delta int) float64 {
	return (1 + eps) * (1 + math.Log(float64(delta+1)))
}
