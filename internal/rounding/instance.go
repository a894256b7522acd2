// Package rounding implements the paper's abstract randomized rounding
// process (Section 3.1) together with the conditional-probability machinery
// needed to derandomize it by the method of conditional expectations
// (Sections 3.2 and 3.3).
//
// The process is defined over an abstract constraint structure rather than a
// graph, so one Process serves every instance of the paper: value sites
// carry (x, p) pairs; constraint sites carry thresholds and member lists.
// Phase 1 sets each value site to x/p with probability p and to 0
// otherwise; phase 2 sets the owner of every violated constraint to 1
// (Lemma 3.1). This package builds the one-shot instances (OneShot, over
// the inclusive neighbourhoods for Lemma 3.8 or their covering subsets for
// Lemma 3.13); package derand builds the factor-two instance of
// Lemma 3.14, whose unsplit form is Lemma 3.9's.
package rounding

import (
	"fmt"

	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
)

// Instance is one instantiation of the abstract randomized rounding process.
type Instance struct {
	Ctx fixpoint.Ctx
	// X and P are per value site: the current fractional value and the
	// rounding probability, with P[j] ≥ X[j] as Section 3.1 requires
	// (P[j] = 1 means the site keeps X[j] deterministically).
	X, P []fixpoint.Value
	// C and Members are per constraint: the threshold and the value sites
	// whose phase-1 values count toward it.
	C       []fixpoint.Value
	Members [][]int32
	// Owner maps each constraint to the value site that is set to 1 in
	// phase 2 if the constraint is violated after phase 1.
	Owner []int32
}

// Validate checks the structural invariants of the instance.
func (in *Instance) Validate() error {
	if len(in.X) != len(in.P) {
		return fmt.Errorf("rounding: |X|=%d |P|=%d", len(in.X), len(in.P))
	}
	if len(in.C) != len(in.Members) || len(in.C) != len(in.Owner) {
		return fmt.Errorf("rounding: constraints inconsistent: %d/%d/%d",
			len(in.C), len(in.Members), len(in.Owner))
	}
	one := in.Ctx.One()
	for j := range in.X {
		if in.X[j] > one {
			return fmt.Errorf("rounding: x(%d) > 1", j)
		}
		if in.P[j] < in.X[j] {
			return fmt.Errorf("rounding: p(%d)=%s < x(%d)=%s", j,
				in.Ctx.String(in.P[j]), j, in.Ctx.String(in.X[j]))
		}
		if in.P[j] > one {
			return fmt.Errorf("rounding: p(%d) > 1", j)
		}
	}
	for i, ms := range in.Members {
		if in.C[i] > one {
			return fmt.Errorf("rounding: c(%d) > 1", i)
		}
		for _, j := range ms {
			if int(j) >= len(in.X) || j < 0 {
				return fmt.Errorf("rounding: constraint %d references site %d", i, j)
			}
		}
		if int(in.Owner[i]) >= len(in.X) || in.Owner[i] < 0 {
			return fmt.Errorf("rounding: constraint %d has invalid owner %d", i, in.Owner[i])
		}
	}
	return nil
}

// FireValue returns the phase-1 "on" value x(j)/p(j) of site j (0 for
// p(j)=0), rounded down so realized feasibility claims stay conservative.
func (in *Instance) FireValue(j int) fixpoint.Value {
	if in.P[j] == 0 {
		return 0
	}
	if in.P[j] == in.Ctx.One() {
		return in.X[j]
	}
	return in.Ctx.DivDown(in.X[j], in.P[j])
}

// Deterministic reports whether site j does not flip a coin (p ∈ {0, 1}).
func (in *Instance) Deterministic(j int) bool {
	return in.P[j] == 0 || in.P[j] == in.Ctx.One()
}

// OneShotOnGraph builds the one-shot rounding instance of Section 3.2 on a
// graph (Lemma 3.8): OneShot over the inclusive neighbourhoods.
func OneShotOnGraph(g *graph.Graph, fds *fractional.CFDS, lnDeltaTilde fixpoint.Value) *Instance {
	return OneShot(fds, lnDeltaTilde, g.ClosedNeighborhoods())
}

// OneShot builds a one-shot rounding instance with one value site and one
// constraint per node: x(v) = min(1, ln(Δ̃)·x'(v)), p(v) = x(v), and
// constraint v has threshold 1, the given members and owner v. Lemma 3.8
// passes the inclusive neighbourhoods, Lemma 3.13 their covering subsets.
func OneShot(fds *fractional.CFDS, lnDeltaTilde fixpoint.Value, members [][]int32) *Instance {
	ctx := fds.Ctx
	n := len(fds.X)
	inst := &Instance{
		Ctx:     ctx,
		X:       make([]fixpoint.Value, n),
		P:       make([]fixpoint.Value, n),
		C:       make([]fixpoint.Value, n),
		Members: members,
		Owner:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		x := ctx.Clamp1(ctx.MulUp(fds.X[v], lnDeltaTilde))
		inst.X[v] = x
		inst.P[v] = x
		inst.C[v] = ctx.One()
		inst.Owner[v] = int32(v)
	}
	return inst
}

// Outcome is the result of executing both phases of the process for a full
// coin assignment.
type Outcome struct {
	// Values are the final per-site values (after phase 2), clamped to 1.
	Values []fixpoint.Value
	// Rescued counts constraints that were violated after phase 1 (their
	// owners joined in phase 2) — the realized Σ 1{E_i}.
	Rescued int
}

// Size returns the total size Σ values of the outcome.
func (o *Outcome) Size(ctx fixpoint.Ctx) fixpoint.Value {
	var s fixpoint.Value
	for _, v := range o.Values {
		s = ctx.Add(s, v)
	}
	return s
}

// Execute runs both phases for the coin assignment given by coins: coins(j)
// is consulted only for non-deterministic sites and reports whether site j
// fires. This is used by the randomized baselines (true randomness or
// k-wise seeds, Lemmas 3.6/3.7) and by the derandomization engines once all
// coins are fixed.
func (in *Instance) Execute(coins func(j int) bool) *Outcome {
	ctx := in.Ctx
	vals := make([]fixpoint.Value, len(in.X))
	for j := range in.X {
		switch {
		case in.Deterministic(j):
			if in.P[j] == 0 {
				vals[j] = 0
			} else {
				vals[j] = in.X[j]
			}
		case coins(j):
			vals[j] = ctx.Clamp1(in.FireValue(j))
		default:
			vals[j] = 0
		}
	}
	out := &Outcome{Values: vals}
	// Phase 2 is evaluated against phase-1 values only: collect the violated
	// constraints first, then raise their owners.
	var violated []int32
	for i, ms := range in.Members {
		var cov fixpoint.Value
		for _, j := range ms {
			cov = ctx.Add(cov, vals[j])
		}
		if cov < in.C[i] {
			violated = append(violated, in.Owner[i])
		}
	}
	for _, j := range violated {
		vals[j] = ctx.One()
	}
	out.Rescued = len(violated)
	return out
}
