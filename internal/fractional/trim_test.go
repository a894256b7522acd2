package fractional

import (
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
			net := congest.NewNetwork(tt.g, congest.Config{})
			fds, err := Initial(net, nil, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			before := fds.SizeFloat()
			var ledger congest.Ledger
			Trim(tt.g, fds, &ledger)
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

func TestTrimRemovesObviousSlack(t *testing.T) {
	// All-ones on a star is feasible but wasteful; trimming must remove most
	// of it (only the hub is needed).
	g := graph.Star(12)
	ctx := ScaleFor(12)
	fds := NewFDS(ctx, 12)
	for v := range fds.X {
		fds.X[v] = ctx.One()
	}
	Trim(g, fds, nil)
	if err := fds.Check(g); err != nil {
		t.Fatal(err)
	}
	if s := fds.SizeFloat(); s > 3 {
		t.Errorf("trimmed size %.2f still wasteful on a star", s)
	}
}

func TestTrimEmptyGraph(t *testing.T) {
	fds := NewFDS(ScaleFor(1), 0)
	Trim(graph.Path(0), fds, nil) // must not panic
}

func TestTrimDeterministic(t *testing.T) {
	g := graph.GNPConnected(30, 0.2, 8)
	run := func() []float64 {
		net := congest.NewNetwork(g, congest.Config{})
		fds, err := Initial(net, nil, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		Trim(g, fds, nil)
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
