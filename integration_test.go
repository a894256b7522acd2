package main

import (
	"math"
	"testing"
	"testing/quick"

	"congestds/internal/baseline"
	"congestds/internal/cds"
	"congestds/internal/congest"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/rounding"
	"congestds/internal/verify"
)

// Property: on arbitrary random connected graphs, both engines produce
// dominating sets whose size respects the Theorem 1.1/1.2 bound against the
// exact optimum (graphs kept small enough for branch and bound).
func TestPropertyApproximationBound(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		p := 0.12
		if dense {
			p = 0.3
		}
		g := graph.GNPConnected(16+int(seed%8), p, seed)
		opt := len(baseline.Exact(g))
		for _, eng := range []mds.Engine{mds.EngineDecomposition, mds.EngineColoring} {
			res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: eng})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if !verify.IsDominatingSet(g, res.Set) {
				return false
			}
			if float64(len(res.Set)) > res.Bound*float64(opt)+1e-9 {
				t.Logf("seed %d: %d > %.2f × %d", seed, len(res.Set), res.Bound, opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: the CDS pipeline always yields a connected dominating set with
// |CDS| ≤ 3|DS| on random connected graphs.
func TestPropertyCDS(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNPConnected(20+int(seed%20), 0.12, seed)
		res, err := cds.Solve(g, mds.Params{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return verify.CheckCDS(g, res.CDS) == nil && len(res.CDS) <= 3*len(res.DS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: the abstract rounding process output is feasible for arbitrary
// coin outcomes derived from the seed (Lemma 3.1, property 1).
func TestPropertyRoundingAlwaysFeasible(t *testing.T) {
	f := func(seed uint64, coinBits uint64) bool {
		g := graph.GNPConnected(12+int(seed%10), 0.3, seed)
		ctx := fractional.ScaleFor(g.N())
		fds := fractional.NewFDS(ctx, g.N())
		minInc := g.N()
		for v := 0; v < g.N(); v++ {
			if d := g.Degree(v) + 1; d < minInc {
				minInc = d
			}
		}
		for v := range fds.X {
			fds.X[v] = ctx.FromRatio(1, uint64(minInc), true)
		}
		inst := rounding.OneShotOnGraph(g, fds, ctx.FromFloat(math.Log(float64(g.MaxDegree()+2))))
		out := inst.Execute(func(j int) bool { return coinBits>>(uint(j)%64)&1 == 1 })
		res := fractional.NewFDS(ctx, g.N())
		copy(res.X, out.Values)
		return res.Check(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the congest execution engine (goroutine vs stepped scheduler)
// is invisible to mds.Solve — for arbitrary random graphs and both
// derandomization engines, set membership and every cost metric must be
// identical. This is the pipeline-level face of the determinism contract
// that internal/congest/conformance pins at the message-passing level.
func TestPropertyCrossSimEngineEquivalence(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		p := 0.12
		if dense {
			p = 0.3
		}
		g := graph.GNPConnected(20+int(seed%16), p, seed)
		for _, eng := range []mds.Engine{mds.EngineDecomposition, mds.EngineColoring} {
			var ref *mds.Result
			for _, sim := range congest.Engines() {
				res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: eng, Run: congest.Run{Sim: sim}})
				if err != nil {
					t.Logf("seed %d engine %v sim %v: %v", seed, eng, sim, err)
					return false
				}
				if ref == nil {
					ref = res
					continue
				}
				if len(res.Set) != len(ref.Set) {
					t.Logf("seed %d engine %v: set size %d vs %d", seed, eng, len(res.Set), len(ref.Set))
					return false
				}
				for i := range res.Set {
					if res.Set[i] != ref.Set[i] {
						t.Logf("seed %d engine %v: member %d differs", seed, eng, i)
						return false
					}
				}
				a, b := ref.Ledger.Metrics(), res.Ledger.Metrics()
				if a.Rounds != b.Rounds || a.ChargedRounds != b.ChargedRounds ||
					a.Messages != b.Messages || a.Bits != b.Bits || a.MaxMsgBits != b.MaxMsgBits {
					t.Logf("seed %d engine %v: metrics diverge: %+v vs %+v", seed, eng, a, b)
					return false
				}
			}
		}
		return true
	}
	max := 10
	if testing.Short() {
		max = 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max}); err != nil {
		t.Error(err)
	}
}

// Cross-engine consistency: both engines start from the same Part I
// solution, so their outputs must be valid and within a small factor of
// each other on every family.
func TestEnginesConsistent(t *testing.T) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(64, 0.08, 4)},
		{"grid", graph.Grid(8, 8)},
		{"disk", graph.UnitDiskConnected(64, 0.25, 5)},
	} {
		r1, err := mds.Solve(fam.g, mds.Params{Eps: 0.5, Engine: mds.EngineDecomposition})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := mds.Solve(fam.g, mds.Params{Eps: 0.5, Engine: mds.EngineColoring})
		if err != nil {
			t.Fatal(err)
		}
		a, b := float64(len(r1.Set)), float64(len(r2.Set))
		if a > 2*b+2 || b > 2*a+2 {
			t.Errorf("%s: engines disagree wildly: %v vs %v", fam.name, a, b)
		}
	}
}

// End-to-end bandwidth audit: the measured phases of the full pipeline must
// respect the CONGEST budget on every family.
func TestPipelineBandwidthAudit(t *testing.T) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(96, 0.05, 6)},
		{"ba", graph.BarabasiAlbert(96, 2, 7)},
	} {
		res, err := mds.Solve(fam.g, mds.Params{Eps: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Ledger.Metrics()
		if m.BandwidthBits > 0 && m.MaxMsgBits > m.BandwidthBits {
			t.Errorf("%s: message of %d bits exceeded budget %d", fam.name, m.MaxMsgBits, m.BandwidthBits)
		}
		if m.Model != congest.Congest {
			t.Errorf("%s: expected CONGEST model, got %v", fam.name, m.Model)
		}
	}
}

// Degenerate topologies must not break any pipeline.
func TestDegenerateTopologies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"single", graph.Path(1)},
		{"pair", graph.Path(2)},
		{"triangle", graph.Complete(3)},
		{"star3", graph.Star(3)},
	}
	for _, tt := range cases {
		for _, eng := range []mds.Engine{mds.EngineDecomposition, mds.EngineColoring} {
			res, err := mds.Solve(tt.g, mds.Params{Eps: 0.5, Engine: eng})
			if err != nil {
				t.Errorf("%s/%v: %v", tt.name, eng, err)
				continue
			}
			if !verify.IsDominatingSet(tt.g, res.Set) {
				t.Errorf("%s/%v: not dominating", tt.name, eng)
			}
		}
	}
}
