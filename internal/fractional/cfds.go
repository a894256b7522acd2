// Package fractional implements constraint fractional dominating sets
// (Definition 2.1 of the paper) and the computation of the initial
// fractional solution (Lemma 2.1, after [KMW06]).
package fractional

import (
	"fmt"

	"congestds/internal/fixpoint"
	"congestds/internal/graph"
)

// CFDS is a constraint fractional dominating set (x, c) over a graph: node v
// carries a fractional value X[v] ∈ [0,1] and a constraint C[v] ∈ [0,1]; it
// is feasible when Σ_{u∈N(v)} X[u] ≥ C[v] for the inclusive neighbourhood
// N(v). All values are transmittable fixed-point numbers in Ctx's scale.
type CFDS struct {
	Ctx fixpoint.Ctx
	X   []fixpoint.Value
	C   []fixpoint.Value
}

// NewFDS returns a fractional dominating set skeleton (all constraints 1,
// all values 0) for n nodes.
func NewFDS(ctx fixpoint.Ctx, n int) *CFDS {
	f := &CFDS{Ctx: ctx, X: make([]fixpoint.Value, n), C: make([]fixpoint.Value, n)}
	for v := range f.C {
		f.C[v] = ctx.One()
	}
	return f
}

// Clone returns a deep copy.
func (f *CFDS) Clone() *CFDS {
	return &CFDS{
		Ctx: f.Ctx,
		X:   append([]fixpoint.Value(nil), f.X...),
		C:   append([]fixpoint.Value(nil), f.C...),
	}
}

// N returns the number of nodes.
func (f *CFDS) N() int { return len(f.X) }

// Size returns Σ_v X[v] (the paper's "size of the CFDS").
func (f *CFDS) Size() fixpoint.Value {
	var s fixpoint.Value
	for _, x := range f.X {
		s = f.Ctx.Add(s, x)
	}
	return s
}

// SizeFloat returns the size as a float64 for reporting.
func (f *CFDS) SizeFloat() float64 { return f.Ctx.Float(f.Size()) }

// Coverage returns Σ_{u∈N(v)} X[u] for node v on g.
func (f *CFDS) Coverage(g *graph.Graph, v int) fixpoint.Value {
	s := f.X[v]
	for _, u := range g.Neighbors(v) {
		s = f.Ctx.Add(s, f.X[u])
	}
	return s
}

// Check verifies feasibility on g: every node's coverage meets its
// constraint and every value is in [0,1]. It returns a descriptive error for
// the first violation.
func (f *CFDS) Check(g *graph.Graph) error {
	if g.N() != f.N() {
		return fmt.Errorf("fractional: CFDS has %d nodes, graph has %d", f.N(), g.N())
	}
	one := f.Ctx.One()
	for v, x := range f.X {
		if x > one {
			return fmt.Errorf("fractional: x(%d)=%s exceeds 1", v, f.Ctx.String(x))
		}
		if f.C[v] > one {
			return fmt.Errorf("fractional: c(%d)=%s exceeds 1", v, f.Ctx.String(f.C[v]))
		}
	}
	for v := range f.X {
		if cov := f.Coverage(g, v); cov < f.C[v] {
			return fmt.Errorf("fractional: node %d uncovered: coverage %s < constraint %s",
				v, f.Ctx.String(cov), f.Ctx.String(f.C[v]))
		}
	}
	return nil
}

// Fractionality returns the smallest nonzero value (the paper's λ for a
// λ-fractional solution), or 0 if all values are zero.
func (f *CFDS) Fractionality() fixpoint.Value {
	var min fixpoint.Value
	for _, x := range f.X {
		if x > 0 && (min == 0 || x < min) {
			min = x
		}
	}
	return min
}

// Integral reports whether every value is 0 or 1.
func (f *CFDS) Integral() bool {
	one := f.Ctx.One()
	for _, x := range f.X {
		if x != 0 && x != one {
			return false
		}
	}
	return true
}

// Set returns the nodes with value 1 (the dominating set, when Integral).
func (f *CFDS) Set() []int {
	var s []int
	one := f.Ctx.One()
	for v, x := range f.X {
		if x == one {
			s = append(s, v)
		}
	}
	return s
}

// ScaleFor returns the fixed-point scale used for an n-node instance,
// mirroring the paper's transmittable precision ι = Θ(log n) while keeping
// sums of n+1 terms exact in uint64 (see docs/ARCHITECTURE.md#substitutions,
// substitution 6).
func ScaleFor(n int) fixpoint.Ctx {
	logn := 1
	for (1 << logn) < n {
		logn++
	}
	s := 5 * logn
	if s < 12 {
		s = 12
	}
	if s > 44 {
		s = 44
	}
	return fixpoint.MustNew(uint(s))
}
