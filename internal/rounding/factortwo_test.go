package rounding_test

import (
	"testing"

	"congestds/internal/derand"
	"congestds/internal/fractional"
	"congestds/internal/graph"
)

// The factor-two instance of Lemma 3.9 is Lemma 3.14's built with a split
// size no inclusive neighbourhood reaches: one constraint per node, owned by
// it, threshold 1 on a feasible input; light nodes participate with p = 1/2
// and nodes with x = 0 keep 0 with p = 0.
func TestFactorTwoInstanceShape(t *testing.T) {
	g := graph.Complete(8)
	ctx := fractional.ScaleFor(8)
	fds := fractional.NewFDS(ctx, 8)
	r := uint64(16)
	for v := range fds.X {
		if v == 0 {
			continue // zero: keeps 0
		}
		if v < 4 {
			fds.X[v] = ctx.FromRatio(1, r, false) // small: participates
		} else {
			fds.X[v] = ctx.FromRatio(1, 2, false) // large: keeps value
		}
	}
	inst, err := derand.FactorTwoBipartite(g, fds, 0.25, r, g.MaxDegree()+2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.C) != g.N() {
		t.Fatalf("%d constraints, want one per node (%d)", len(inst.C), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if inst.C[v] != ctx.One() || inst.Owner[v] != int32(v) || len(inst.Members[v]) != g.Degree(v)+1 {
			t.Errorf("constraint %d: c=%s owner=%d |members|=%d, want N[%d] at threshold 1",
				v, ctx.String(inst.C[v]), inst.Owner[v], len(inst.Members[v]), v)
		}
	}
	if inst.P[0] != 0 {
		t.Errorf("zero node 0 should keep 0 (p=0), got p=%s", ctx.String(inst.P[0]))
	}
	for v := 1; v < 4; v++ {
		if inst.P[v] != ctx.Half() {
			t.Errorf("small node %d should participate (p=1/2), got %s", v, ctx.String(inst.P[v]))
		}
	}
	for v := 4; v < 8; v++ {
		if inst.P[v] != ctx.One() {
			t.Errorf("large node %d should keep its value", v)
		}
	}
}
