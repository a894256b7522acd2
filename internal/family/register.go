package family

import (
	"context"
	"fmt"
	"math"

	"congestds/internal/arbmds"
	"congestds/internal/baseline"
	"congestds/internal/cds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mcds"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// Registrations of every algorithm: the source paper's pipelines, the
// host-side baselines and the families beyond the paper. The registry
// deliberately lives on the consumer side (adapters around the algorithms'
// typed APIs) so the algorithm packages stay free of registry concerns and
// their Solve signatures can stay precise.

// ratioCert is the certificate of the source paper's algorithms and the
// baselines: the dual-packing ratio of verify.Certify plus one structural
// check (domination, or verify.CheckCDS for cds). The ratio is reported,
// not gated: the paper's guarantee is a note, not a pass condition.
type ratioCert struct {
	verify.RatioCertificate
	err error // the structural violation; nil when the set passed
}

func (c ratioCert) Passed() bool { return c.err == nil }

func (c ratioCert) String() string {
	s := fmt.Sprintf("size=%d LB=%.2f ratio≤%.3f ok=%v", c.Size, c.LowerBound, c.Ratio, c.Passed())
	if c.err != nil {
		s += " (" + c.err.Error() + ")"
	}
	return s
}

// certifyDS certifies a dominating set.
func certifyDS(g *graph.Graph, set []int) ratioCert {
	var err error
	if v := verify.FirstUndominated(g, set); v != -1 {
		err = fmt.Errorf("node %d not dominated", v)
	}
	return ratioCert{verify.Certify(g, set), err}
}

// configErr reports caller misuse: it wraps congest.ErrConfig, so mdsrun
// exits 2 and mdsd answers 400.
func configErr(format string, args ...any) error {
	return fmt.Errorf("%w: family: %s", congest.ErrConfig, fmt.Sprintf(format, args...))
}

// peelEps fills in the default ε (0.5) of the peeling families, arbmds and
// mcds, when eps is 0, and rejects a negative or non-finite one: their
// thresholds and certificate claims are meaningless there.
func peelEps(eps float64) (float64, error) {
	switch {
	case math.IsNaN(eps) || math.IsInf(eps, 0):
		return 0, configErr("eps=%v is not finite", eps)
	case eps < 0:
		return 0, configErr("eps=%v is negative", eps)
	case eps == 0:
		return 0.5, nil
	}
	return eps, nil
}

// paperEps is the source paper's default ε, the zero value of mds.Params.Eps.
const paperEps = 0.5

// mdsParams validates p for the source paper's pipeline and translates it.
// ε = 0 selects the default; otherwise ε must lie in (0,1]. The pipeline
// has no round clamp. Deadline becomes a timeout on Ctx, because one
// context bounds the whole multi-part solve; the returned cancel releases
// it.
func mdsParams(p Params, engine mds.Engine) (mds.Params, context.CancelFunc, error) {
	eps := p.Eps
	if eps == 0 {
		eps = paperEps
	}
	switch {
	case !(eps > 0 && eps <= 1): // also catches NaN
		return mds.Params{}, nil, configErr("eps=%v out of (0,1]", p.Eps)
	case p.MaxRounds > 0:
		return mds.Params{}, nil, configErr("the paper pipeline takes no round clamp (maxrounds=%d)", p.MaxRounds)
	}
	ctx, cancel := p.Ctx, context.CancelFunc(func() {})
	if p.Deadline > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
	}
	return mds.Params{Eps: eps, Engine: engine, Sim: p.Sim, Ctx: ctx, Observer: p.Observer}, cancel, nil
}

// ledgerResult is the uniform result of a ledger-keeping pipeline: Rounds
// is the measured+charged total, and a final note shows the split.
func ledgerResult(set []int, led *congest.Ledger, cert Certificate, notes ...string) *Result {
	m := led.Metrics()
	notes = append(notes, fmt.Sprintf("rounds measured+charged: %d+%d", m.Rounds, m.ChargedRounds))
	return &Result{Set: set, Rounds: m.TotalRounds(), Cert: cert, Notes: notes, Ledger: led}
}

// paperFamily is the adapter for one mds.Solve variant: Theorem 1.1, 1.2
// or Corollary 1.3, selected by engine.
func paperFamily(name, summary string, engine mds.Engine) Family {
	return Family{
		Name:       name,
		Summary:    summary,
		DefaultEps: paperEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			mp, cancel, err := mdsParams(p, engine)
			if err != nil {
				return nil, err
			}
			defer cancel()
			res, err := mds.Solve(g, mp)
			if err != nil {
				return nil, err
			}
			return ledgerResult(res.Set, res.Ledger, certifyDS(g, res.Set),
				fmt.Sprintf("paper guarantee: (1+ε)(1+ln(Δ+1)) = %.3f", res.Bound)), nil
		},
	}
}

func init() {
	Register(paperFamily("thm1.1",
		"source paper Theorem 1.1 (arXiv:1905.10775): (1+ε)(1+ln(Δ+1))·OPT, derandomized by network decomposition",
		mds.EngineDecomposition))
	thm12 := paperFamily("thm1.2",
		"source paper Theorem 1.2 (arXiv:1905.10775): (1+ε)(1+ln(Δ+1))·OPT, derandomized by distance-2 colorings",
		mds.EngineColoring)
	Register(thm12)
	// paper names the headline result: the same adapter, registered twice.
	thm12.Name = "paper"
	Register(thm12)
	Register(paperFamily("cor1.3",
		"source paper Corollary 1.3: the Theorem 1.2 pipeline in the LOCAL model (no bipartite simulation overhead charged)",
		mds.EngineColoringLocal))

	Register(Family{
		Name:       "cds",
		Summary:    "source paper Theorem 1.4: the Theorem 1.2 dominating set extended to a connected dominating set, |CDS| ≤ 3|DS|",
		DefaultEps: paperEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			mp, cancel, err := mdsParams(p, mds.EngineColoring)
			if err != nil {
				return nil, err
			}
			defer cancel()
			res, err := cds.Solve(g, cds.Params{MDS: mp})
			if err != nil {
				return nil, err
			}
			cert := ratioCert{verify.Certify(g, res.CDS), verify.CheckCDS(g, res.CDS)}
			out := ledgerResult(res.CDS, res.Ledger, cert,
				fmt.Sprintf("underlying dominating set: %d nodes, %d cluster centres", len(res.DS), len(res.RulingSet)),
				fmt.Sprintf("paper guarantee: 3(1+ε)(1+ln(Δ+1)) = %.3f", res.Bound))
			out.DS = res.DS
			return out, nil
		},
	})

	// The baselines run sequentially on the host: no simulated rounds, so
	// Rounds stays 0 and the execution-context fields have nothing to bound.
	Register(Family{
		Name:       "greedy",
		Summary:    "sequential greedy baseline [Joh74], host-side: (1+ln(Δ+1))·OPT, no simulated rounds",
		DefaultEps: paperEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			set := baseline.Greedy(g)
			return &Result{Set: set, Cert: certifyDS(g, set)}, nil
		},
	})
	Register(Family{
		Name:       "exact",
		Summary:    "exact minimum dominating set by branch and bound, host-side, n ≤ 64 (exponential time)",
		DefaultEps: paperEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			if g.N() > 64 {
				return nil, configErr("exact solver is for n ≤ 64 (got %d)", g.N())
			}
			set := baseline.Exact(g)
			return &Result{Set: set, Cert: certifyDS(g, set)}, nil
		},
	})

	Register(Family{
		Name:       "arbmds",
		Summary:    "bounded-arboricity peeling MDS (Dory–Ghaffari–Ilchi, arXiv:2206.05174): O(α)·OPT in 4·⌈log₁₊ε Δ̃⌉ rounds, independent of n",
		DefaultEps: 0.5,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			eps, err := peelEps(p.Eps)
			if err != nil {
				return nil, err
			}
			res, err := arbmds.Solve(g, arbmds.Params{
				Eps: eps, Sim: p.Sim, MaxRounds: p.MaxRounds,
				Deadline: p.Deadline, Ctx: p.Ctx, Observer: p.Observer,
			})
			if err != nil {
				return nil, err
			}
			cert := verify.CertifyArb(g, res.Set, eps)
			return &Result{
				Set:    res.Set,
				Rounds: res.Metrics.Rounds,
				Cert:   cert,
				Notes: []string{
					fmt.Sprintf("phases: %d (thresholds %v), rounds independent of n",
						len(res.Thresholds), res.Thresholds),
				},
			}, nil
		},
	})

	Register(Family{
		Name:       "mcds",
		Summary:    "connected dominating set (Ghaffari MCDS family, arXiv:1404.7559, unit weights): dominate via threshold greedy, connect via two-hop paths along a BFS orientation",
		NeedsDiam:  true,
		DefaultEps: 0.5,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			eps, err := peelEps(p.Eps)
			if err != nil {
				return nil, err
			}
			if p.DiamBound < 0 {
				return nil, configErr("diam=%d is negative (0 selects the automatic bound)", p.DiamBound)
			}
			res, err := mcds.Solve(g, mcds.Params{
				Eps: eps, Sim: p.Sim, MaxRounds: p.MaxRounds, DiamBound: p.DiamBound,
				Deadline: p.Deadline, Ctx: p.Ctx, Observer: p.Observer,
			})
			if err != nil {
				return nil, err
			}
			// Solve verified connectivity + domination before returning;
			// only the LP ratio is left to compute.
			cert := verify.CertifyCDSVerified(g, res.CDS, verify.MCDSClaimBound(g.MaxDegree(), eps))
			return &Result{
				Set:    res.CDS,
				DS:     res.DS,
				Rounds: res.Metrics.Rounds,
				Cert:   cert,
				Notes: []string{
					fmt.Sprintf("underlying dominating set: %d nodes (|CDS| ≤ 3|DS|+1 = %d)",
						len(res.DS), 3*len(res.DS)+1),
					fmt.Sprintf("schedule: %d peel phases + D̂=%d orientation + 2 connect rounds",
						len(res.Thresholds), res.DiamBound),
				},
			}, nil
		},
	})
}
