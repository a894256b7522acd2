package fractional

import (
	"fmt"
	"slices"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

func TestTrimPreservesFeasibility(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(50, 0.12, 5)},
		{"star", graph.Star(20)},
		{"grid", graph.Grid(6, 6)},
		{"cycle", graph.Cycle(15)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			fds := floored(tt.g, coverRaw(t, tt.g, congest.EngineStepped, 0.5), 0.5)
			if err := fds.Check(tt.g); err != nil {
				t.Fatal(err)
			}
			before := fds.SizeFloat()
			var ledger congest.Ledger
			trim(tt.g, fds, &ledger)
			if err := fds.Check(tt.g); err != nil {
				t.Fatalf("trim broke feasibility: %v", err)
			}
			after := fds.SizeFloat()
			if after > before+1e-9 {
				t.Errorf("trim increased size: %.4f -> %.4f", before, after)
			}
			if ledger.Metrics().ChargedRounds <= 0 {
				t.Error("no rounds charged")
			}
		})
	}
}

// TestTrimOnePassIsExact pins the property that lets trim make one pass: a
// second trim of trim's own output, from Initial's floored covering start,
// changes no value.
func TestTrimOnePassIsExact(t *testing.T) {
	for _, tc := range coverCorpus(t, testing.Short()) {
		for _, eps := range []float64{0.5 / 16, 0.3, 1} {
			t.Run(fmt.Sprintf("%s/eps=%g", tc.name, eps), func(t *testing.T) {
				g := tc.g
				fds := floored(g, coverRaw(t, g, congest.EngineStepped, eps), eps)
				trim(g, fds, nil)
				once := slices.Clone(fds.X)
				trim(g, fds, nil)
				for v := range once {
					if fds.X[v] != once[v] {
						t.Fatalf("second pass moved x[%d]: %s -> %s",
							v, fds.Ctx.String(once[v]), fds.Ctx.String(fds.X[v]))
					}
				}
			})
		}
	}
}

func TestTrimRemovesObviousSlack(t *testing.T) {
	// All-ones on a star is feasible but wasteful; trimming must remove most
	// of it (only the hub is needed).
	g := graph.Star(12)
	ctx := ScaleFor(12)
	fds := NewFDS(ctx, 12)
	for v := range fds.X {
		fds.X[v] = ctx.One()
	}
	trim(g, fds, nil)
	if err := fds.Check(g); err != nil {
		t.Fatal(err)
	}
	if s := fds.SizeFloat(); s > 3 {
		t.Errorf("trimmed size %.2f still wasteful on a star", s)
	}
}

func TestTrimEmptyGraph(t *testing.T) {
	fds := NewFDS(ScaleFor(1), 0)
	trim(graph.Path(0), fds, nil) // must not panic
}

func TestTrimDeterministic(t *testing.T) {
	g := graph.GNPConnected(30, 0.2, 8)
	run := func() []float64 {
		fds := floored(g, coverRaw(t, g, congest.EngineStepped, 0.4), 0.4)
		trim(g, fds, nil)
		out := make([]float64, g.N())
		for v := range out {
			out[v] = fds.Ctx.Float(fds.X[v])
		}
		return out
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("trim not deterministic")
		}
	}
}
