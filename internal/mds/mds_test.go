package mds

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/verify"
)

func engines() []Engine {
	return []Engine{EngineDecomposition, EngineColoring, EngineColoringLocal}
}

// Caller misuse is a typed config error: it wraps congest.ErrConfig.
func TestSolveValidation(t *testing.T) {
	g := graph.Path(4)
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"negative eps", Params{Eps: -0.1}},
		{"eps>1", Params{Eps: 2}},
		{"eps=NaN", Params{Eps: math.NaN()}},
		{"eps=+Inf", Params{Eps: math.Inf(1)}},
		{"unknown engine", Params{Engine: 99}},
		{"negative engine", Params{Engine: -1}},
		{"unknown preset", Params{Preset: 5}},
		{"negative preset", Params{Preset: -1}},
	} {
		if _, err := Solve(g, c.p); !errors.Is(err, congest.ErrConfig) {
			t.Errorf("%s: err = %v, want a congest.ErrConfig", c.name, err)
		}
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	res, err := Solve(graph.Path(0), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) != 0 {
		t.Error("empty graph should yield empty set")
	}
}

// Every engine must produce a dominating set on every family.
func TestSolveDominatesAcrossFamiliesAndEngines(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path15", graph.Path(15)},
		{"cycle12", graph.Cycle(12)},
		{"star16", graph.Star(16)},
		{"grid5x5", graph.Grid(5, 5)},
		{"gnp40", graph.GNPConnected(40, 0.12, 3)},
		{"caterpillar", graph.Caterpillar(5, 3)},
		{"ba", graph.BarabasiAlbert(40, 2, 1)},
		{"single", graph.Path(1)},
		{"two", graph.Path(2)},
	}
	for _, eng := range engines() {
		for _, tt := range graphs {
			t.Run(eng.String()+"/"+tt.name, func(t *testing.T) {
				res, err := Solve(tt.g, Params{Eps: 0.5, Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				if !verify.IsDominatingSet(tt.g, res.Set) {
					t.Fatal("not a dominating set")
				}
				if res.Ledger.Metrics().TotalRounds() <= 0 && tt.g.N() > 1 {
					t.Error("no rounds accounted")
				}
			})
		}
	}
}

// Theorem 1.1 / 1.2 approximation guarantee against exact optima on small
// graphs: |DS| ≤ (1+ε)(1+ln(Δ+1))·OPT.
func TestApproximationBoundAgainstExactOPT(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path10", graph.Path(10)},
		{"cycle11", graph.Cycle(11)},
		{"grid4x4", graph.Grid(4, 4)},
		{"gnp20", graph.GNPConnected(20, 0.2, 5)},
		{"gnp24", graph.GNPConnected(24, 0.15, 9)},
		{"caterpillar", graph.Caterpillar(4, 2)},
		{"star12", graph.Star(12)},
	}
	for _, eng := range []Engine{EngineDecomposition, EngineColoring} {
		for _, tt := range graphs {
			t.Run(eng.String()+"/"+tt.name, func(t *testing.T) {
				res, err := Solve(tt.g, Params{Eps: 0.5, Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				opt := len(baseline.Exact(tt.g))
				if float64(len(res.Set)) > res.Bound*float64(opt)+1e-9 {
					t.Errorf("size %d exceeds bound %.3f × OPT %d = %.3f",
						len(res.Set), res.Bound, opt, res.Bound*float64(opt))
				}
			})
		}
	}
}

// Part II trace: fractionality must strictly improve phase over phase, and
// size inflation per phase must stay modest (the (1+ε₂)·A + n/Δ̃⁴ bound of
// Lemma 3.9, checked loosely).
func TestFactorTwoPhasesImproveFractionality(t *testing.T) {
	g := graph.GNPConnected(50, 0.15, 4)
	res, err := Solve(g, Params{Eps: 0.5, Engine: EngineColoring})
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range res.Phases {
		if ph.FracOut < ph.FracIn*1.5 {
			t.Errorf("phase %d: fractionality %v -> %v did not ~double", i, ph.FracIn, ph.FracOut)
		}
		if ph.SizeOut > 1.6*ph.SizeIn+1.0 {
			t.Errorf("phase %d: size %v -> %v inflated too much", i, ph.SizeIn, ph.SizeOut)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := graph.GNPConnected(36, 0.15, 8)
	for _, eng := range engines() {
		a, err := Solve(g, Params{Eps: 0.5, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(g, Params{Eps: 0.5, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Set) != len(b.Set) {
			t.Fatalf("%v: non-deterministic size", eng)
		}
		for i := range a.Set {
			if a.Set[i] != b.Set[i] {
				t.Fatalf("%v: non-deterministic set", eng)
			}
		}
	}
}

// The theory preset must also produce valid dominating sets (its constants
// are just larger).
func TestTheoryPreset(t *testing.T) {
	g := graph.GNPConnected(25, 0.2, 6)
	res, err := Solve(g, Params{Eps: 0.5, Engine: EngineColoring, Preset: Theory})
	if err != nil {
		t.Fatal(err)
	}
	if !verify.IsDominatingSet(g, res.Set) {
		t.Fatal("theory preset output not dominating")
	}
	opt := len(baseline.Exact(g))
	if float64(len(res.Set)) > res.Bound*float64(opt) {
		t.Errorf("theory preset exceeded bound: %d > %.2f·%d", len(res.Set), res.Bound, opt)
	}
}

// The LOCAL variant (Corollary 1.3) must charge no more rounds than the
// CONGEST variant on the same instance.
func TestLocalVariantCheaper(t *testing.T) {
	g := graph.GNPConnected(30, 0.2, 2)
	congestRes, err := Solve(g, Params{Eps: 0.5, Engine: EngineColoring})
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := Solve(g, Params{Eps: 0.5, Engine: EngineColoringLocal})
	if err != nil {
		t.Fatal(err)
	}
	if localRes.Ledger.Metrics().TotalRounds() > congestRes.Ledger.Metrics().TotalRounds() {
		t.Errorf("LOCAL variant charged more rounds (%d) than CONGEST (%d)",
			localRes.Ledger.Metrics().TotalRounds(), congestRes.Ledger.Metrics().TotalRounds())
	}
}

func TestBoundFormula(t *testing.T) {
	if b := Bound(0, 0); b != 1 {
		t.Errorf("Bound(0,0)=%v, want 1", b)
	}
	if b := Bound(0.5, 9); b <= 1.5*3.3 || b >= 1.5*3.4 {
		t.Errorf("Bound(0.5,9)=%v out of expected range", b)
	}
}

// BenchmarkSolve runs the Theorem 1.2 pipeline (EngineColoring, Practical,
// ε = 0.5) end to end. Its time is dominated by Part I's engine sweep:
// the stepped engine's sweepChunk took over half of the CPU in a profile
// of both graphs. The host-side Part II/III colorings and rounding come
// second, as only sites with 0 < x < 2/r flip coins there.
func BenchmarkSolve(b *testing.B) {
	for _, tc := range []struct {
		family string
		n      int
	}{{"gnp", 1500}, {"ba", 2000}} {
		g, err := graph.Named(tc.family, tc.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%d", tc.family, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Solve(g, Params{Eps: 0.5, Engine: EngineColoring, Preset: Practical}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
