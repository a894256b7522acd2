// Package fractional implements constraint fractional dominating sets
// (Definition 2.1 of the paper) and the computation of the initial
// fractional solution (Lemma 2.1, after [KMW06]).
package fractional

import (
	"fmt"

	"congestds/internal/fixpoint"
	"congestds/internal/graph"
)

// CFDS is a fractional dominating set over a graph: node v carries a
// fractional value X[v] ∈ [0,1], and it is feasible when
// Σ_{u∈N(v)} X[u] ≥ 1 for every inclusive neighbourhood N(v). Every
// constraint is 1; the constraints below 1 of Definition 2.1 arise only in
// Part II's rounding instances (rounding.Instance.C). All values are
// transmittable fixed-point numbers in Ctx's scale.
type CFDS struct {
	Ctx fixpoint.Ctx
	X   []fixpoint.Value
}

// NewFDS returns a fractional dominating set skeleton (all values 0) for n
// nodes.
func NewFDS(ctx fixpoint.Ctx, n int) *CFDS {
	return &CFDS{Ctx: ctx, X: make([]fixpoint.Value, n)}
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

// Check verifies feasibility on g: every node's coverage is at least 1 and
// every value is in [0,1]. It returns a descriptive error for the first
// violation.
func (f *CFDS) Check(g *graph.Graph) error {
	if g.N() != f.N() {
		return fmt.Errorf("fractional: CFDS has %d nodes, graph has %d", f.N(), g.N())
	}
	one := f.Ctx.One()
	for v, x := range f.X {
		if x > one {
			return fmt.Errorf("fractional: x(%d)=%s exceeds 1", v, f.Ctx.String(x))
		}
	}
	for v := range f.X {
		if cov := f.Coverage(g, v); cov < one {
			return fmt.Errorf("fractional: node %d uncovered: coverage %s < 1",
				v, f.Ctx.String(cov))
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
