package family

import (
	"fmt"

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
// check (verify.CheckDominating, or verify.CheckCDS for cds). The ratio is reported,
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
	return ratioCert{verify.Certify(g, set), verify.CheckDominating(g, set)}
}

// configErr reports caller misuse: it wraps congest.ErrConfig, so mdsrun
// exits 2 and mdsd answers 400.
func configErr(format string, args ...any) error {
	return fmt.Errorf("%w: family: %s", congest.ErrConfig, fmt.Sprintf(format, args...))
}

// mdsParams translates p for the source paper's pipeline, which checks ε
// itself. It has no round clamp: Ctx bounds the whole multi-part solve.
func mdsParams(p Params, engine mds.Engine) (mds.Params, error) {
	if p.MaxRounds > 0 {
		return mds.Params{}, configErr("the paper pipeline takes no round clamp (maxrounds=%d)", p.MaxRounds)
	}
	return mds.Params{Eps: p.Eps, Engine: engine, Run: p.run()}, nil
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
		DefaultEps: mds.DefaultEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			mp, err := mdsParams(p, engine)
			if err != nil {
				return nil, err
			}
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
		DefaultEps: mds.DefaultEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			mp, err := mdsParams(p, mds.EngineColoring)
			if err != nil {
				return nil, err
			}
			res, err := cds.Solve(g, mp)
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
		DefaultEps: mds.DefaultEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			set := baseline.Greedy(g)
			return &Result{Set: set, Cert: certifyDS(g, set)}, nil
		},
	})
	Register(Family{
		Name:       "exact",
		Summary:    "exact minimum dominating set by branch and bound, host-side, n ≤ 64 (exponential time)",
		DefaultEps: mds.DefaultEps,
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
		DefaultEps: arbmds.DefaultEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := arbmds.Solve(g, arbmds.Params{Eps: p.Eps, MaxRounds: p.MaxRounds, Run: p.run()})
			if err != nil {
				return nil, err
			}
			cert := verify.CertifyArb(g, res.Set, res.Eps)
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
		DefaultEps: arbmds.DefaultEps,
		Solve: func(g *graph.Graph, p Params) (*Result, error) {
			res, err := mcds.Solve(g, mcds.Params{
				Eps: p.Eps, DiamBound: p.DiamBound, MaxRounds: p.MaxRounds, Run: p.run(),
			})
			if err != nil {
				return nil, err
			}
			// Solve verified connectivity + domination before returning;
			// only the LP ratio is left to compute.
			cert := verify.CertifyCDSVerified(g, res.CDS, verify.MCDSClaimBound(g.MaxDegree(), res.Eps))
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
