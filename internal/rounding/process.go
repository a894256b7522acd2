package rounding

import (
	"fmt"

	"congestds/internal/fixpoint"
)

// Process tracks a partially derandomized execution of an Instance: each
// non-deterministic value site has a coin that is unassigned, fixed to fire,
// or fixed to zero. The derandomization engines (package derand) fix coins
// one group at a time using ConditionalCost, which implements the
// conditional expectations of Lemmas 3.4 and 3.10.
//
// Conditional probabilities Pr(E_i | assignment) are computed exactly when
// cheap — the product form whenever any single unassigned firing covers the
// remaining deficit (which is always the case for one-shot rounding, cf.
// Lemma 3.6), or subset enumeration when few coins remain — and otherwise by
// a deterministic base-2 Chernoff pessimistic estimator (see
// docs/ARCHITECTURE.md#substitutions, substitution 2). Free members whose
// fire value is 0 are left out of all three: either coin adds 0 to the
// constraint's sum, so the violation event does not depend on it and
// leaving it out is exact. All three forms are upper bounds that satisfy the
// averaging property over an unassigned coin, so the fixed outcome's
// realized cost never exceeds the initial bound (plus quantization slack
// mirroring the paper's 1/n^10 rounding accounting).
//
// A Process is not safe for concurrent use: ConstraintUB reuses one scratch
// slice across calls.
type Process struct {
	inst          *Instance
	coin          []int8     // -1 unassigned, 0 fixed off, 1 fixed fire
	constraintsOf [][]int32  // value site -> constraints it appears in
	frees         []freeSite // ConstraintUB scratch
}

// coinUnset marks an unassigned coin.
const coinUnset int8 = -1

const (
	// exactLimit is the most free coins ConstraintUB enumerates exactly.
	exactLimit = 16
	// maxSExp bounds the Chernoff estimator's exponent grid: s = 2^e for
	// e = 0..maxSExp. The optimizer takes the minimum bound over the grid; a
	// coarse geometric grid loses at most a constant factor in the exponent,
	// which the experiments absorb. Powers of two make s·x an exact shift.
	maxSExp = 18
)

// NewProcess prepares a derandomization run over inst.
func NewProcess(inst *Instance) (*Process, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := &Process{
		inst:          inst,
		coin:          make([]int8, len(inst.X)),
		constraintsOf: make([][]int32, len(inst.X)),
	}
	for j := range p.coin {
		p.coin[j] = coinUnset
	}
	// Each site's constraint list is a capped window of one flat array, so
	// the appends below fill it in place.
	count := make([]int, len(inst.X))
	total := 0
	for _, ms := range inst.Members {
		for _, j := range ms {
			if !inst.Deterministic(int(j)) {
				count[j]++
				total++
			}
		}
	}
	flat := make([]int32, total)
	for j, c := range count {
		p.constraintsOf[j], flat = flat[:0:c], flat[c:]
	}
	for i, ms := range inst.Members {
		for _, j := range ms {
			if !inst.Deterministic(int(j)) {
				p.constraintsOf[j] = append(p.constraintsOf[j], int32(i))
			}
		}
	}
	return p, nil
}

// shiftSat returns x·2^e saturated at 64 (in fixed point), beyond which
// Exp2Neg is 0/1 anyway.
func shiftSat(ctx fixpoint.Ctx, x fixpoint.Value, e uint) fixpoint.Value {
	cap64 := fixpoint.Value(64) * ctx.One()
	if x == 0 {
		return 0
	}
	if e >= 64 || x > cap64>>e {
		return cap64
	}
	return x << e
}

// freeSite is an unassigned member of a constraint: its phase-1 firing value
// and probability.
type freeSite struct{ fire, prob fixpoint.Value }

// Instance returns the instance under derandomization.
func (p *Process) Instance() *Instance { return p.inst }

// Unassigned reports whether site j still has a free coin.
func (p *Process) Unassigned(j int) bool {
	return !p.inst.Deterministic(j) && p.coin[j] == coinUnset
}

// SetCoin fixes the coin of site j.
func (p *Process) SetCoin(j int, fire bool) {
	if p.inst.Deterministic(j) {
		panic(fmt.Sprintf("rounding: SetCoin on deterministic site %d", j))
	}
	if fire {
		p.coin[j] = 1
	} else {
		p.coin[j] = 0
	}
}

// Coin returns the coin state of site j (-1, 0, or 1).
func (p *Process) Coin(j int) int8 { return p.coin[j] }

// siteState returns the contribution status of site j under the current
// assignment, optionally overriding site j0 with coin b0 (j0 = -1 for no
// override): (fixed contribution, or unassigned fire value + probability).
func (p *Process) siteTerms(j int, j0 int, b0 int8) (fixed fixpoint.Value, fire, prob fixpoint.Value, unassigned bool) {
	in := p.inst
	if in.Deterministic(j) {
		if in.P[j] == 0 {
			return 0, 0, 0, false
		}
		return in.X[j], 0, 0, false
	}
	c := p.coin[j]
	if j == j0 {
		c = b0
	}
	switch c {
	case 1:
		return in.FireValue(j), 0, 0, false
	case 0:
		return 0, 0, 0, false
	default:
		return 0, in.FireValue(j), in.P[j], true
	}
}

// ConstraintUB returns an upper bound on Pr(E_i | current assignment), the
// probability that constraint i is violated after phase 1, with site j0
// optionally overridden to coin b0 (pass j0 = -1 for no override). The bound
// is exact whenever the product form or exhaustive enumeration applies.
func (p *Process) ConstraintUB(i int, j0 int, b0 int8) fixpoint.Value {
	ctx := p.inst.Ctx
	var fixedSum fixpoint.Value
	frees := p.frees[:0]
	var minFire fixpoint.Value
	for _, j := range p.inst.Members[i] {
		fx, fire, prob, un := p.siteTerms(int(j), j0, b0)
		if un {
			if fire == 0 {
				// Either coin adds 0 to the sum, so E_i does not depend on
				// it: leaving the site out is exact.
				continue
			}
			if len(frees) == 0 || fire < minFire {
				minFire = fire
			}
			frees = append(frees, freeSite{fire: fire, prob: prob})
		} else {
			fixedSum = ctx.Add(fixedSum, fx)
		}
	}
	p.frees = frees
	if fixedSum >= p.inst.C[i] {
		return 0
	}
	deficit := p.inst.C[i] - fixedSum
	if len(frees) == 0 {
		return ctx.One() // deterministically violated
	}
	// Exact product form: any single firing covers the deficit, so the
	// constraint is violated iff no free site fires.
	if minFire >= deficit {
		prUnc := ctx.One()
		for _, f := range frees {
			prUnc = ctx.MulUp(prUnc, ctx.Complement(f.prob))
		}
		return prUnc
	}
	// Exhaustive enumeration over free coins (exact, round-up).
	if len(frees) <= exactLimit {
		return p.enumerate(frees, deficit)
	}
	// Deterministic Chernoff estimator, base 2: for every s > 0,
	// Pr(Σ fire_u·B_u < D) ≤ 2^{s·D} · Π_u (p_u·2^{-s·fire_u} + (1-p_u)).
	// Every grid point is evaluated in full: the minimum over one fixed set
	// of s keeps the averaging property, while skipping points by comparing
	// a partial product with the best bound so far would not.
	best := ctx.One()
	for e := uint(0); e <= maxSExp; e++ {
		prod := ctx.One()
		for _, f := range frees {
			exp := shiftSat(ctx, f.fire, e) // s·fire_u with s = 2^e
			factor := ctx.Add(
				ctx.MulUp(f.prob, ctx.Exp2Neg(exp, true)),
				ctx.Complement(f.prob))
			prod = ctx.MulUp(prod, factor)
		}
		// bound = prod · 2^{s·D} = prod / 2^{-s·D}, rounded up.
		den := ctx.Exp2Neg(shiftSat(ctx, deficit, e), false)
		if den == 0 {
			continue // 2^{s·D} too large; bound exceeds 1 anyway
		}
		if prod >= den { // bound ≥ 1: useless
			continue
		}
		bound := ctx.DivUp(prod, den)
		if bound < best {
			best = bound
		}
	}
	return best
}

// enumerate computes Pr(Σ fire_u·B_u < deficit) exactly over independent
// coins, rounding up. Branches whose partial sum already covers the deficit
// are pruned.
func (p *Process) enumerate(frees []freeSite, deficit fixpoint.Value) fixpoint.Value {
	ctx := p.inst.Ctx
	var rec func(idx int, sum, prob fixpoint.Value) fixpoint.Value
	rec = func(idx int, sum, prob fixpoint.Value) fixpoint.Value {
		if sum >= deficit {
			return 0
		}
		if idx == len(frees) {
			return prob
		}
		f := frees[idx]
		off := rec(idx+1, sum, ctx.MulUp(prob, ctx.Complement(f.prob)))
		on := rec(idx+1, ctx.Add(sum, f.fire), ctx.MulUp(prob, f.prob))
		return ctx.Add(off, on)
	}
	return fixpoint.Min(rec(0, 0, ctx.One()), ctx.One())
}

// ValueExp returns E[value of site j after phase 1 | assignment], with an
// optional override of site j0 to coin b0.
func (p *Process) ValueExp(j int, j0 int, b0 int8) fixpoint.Value {
	ctx := p.inst.Ctx
	fx, fire, prob, un := p.siteTerms(j, j0, b0)
	if !un {
		return fx
	}
	return ctx.MulUp(prob, fire)
}

// ConditionalCost evaluates the local objective change relevant to fixing
// site j's coin to b: its own expected value plus the violation bounds of
// every constraint it appears in. This is the quantity Ã_{v,b} of
// Lemma 3.10 (equations (2)–(3)) in pessimistic-estimator form.
func (p *Process) ConditionalCost(j int, b bool) fixpoint.Value {
	b0 := int8(0)
	if b {
		b0 = 1
	}
	ctx := p.inst.Ctx
	cost := p.ValueExp(j, j, b0)
	for _, i := range p.constraintsOf[j] {
		cost = ctx.Add(cost, p.ConstraintUB(int(i), j, b0))
	}
	return cost
}

// DecideCoin fixes site j's coin to the argmin of ConditionalCost (ties
// prefer not firing, matching equation (4): fire only on strict
// improvement) and returns the choice.
func (p *Process) DecideCoin(j int) bool {
	fire := p.ConditionalCost(j, true) < p.ConditionalCost(j, false)
	p.SetCoin(j, fire)
	return fire
}

// Phi returns the full current objective Σ_j E[value_j] + Σ_i Pr-bound(E_i):
// the conditional-expectation potential whose initial value is Lemma 3.1's
// A + Σ_v Pr(E_v) bound. Exposed for tests and experiments.
func (p *Process) Phi() fixpoint.Value {
	ctx := p.inst.Ctx
	var phi fixpoint.Value
	for j := range p.inst.X {
		phi = ctx.Add(phi, p.ValueExp(j, -1, 0))
	}
	for i := range p.inst.C {
		phi = ctx.Add(phi, p.ConstraintUB(i, -1, 0))
	}
	return phi
}

// Finalize executes both phases under the fully fixed assignment. It panics
// if any coin is still unassigned.
func (p *Process) Finalize() *Outcome {
	return p.inst.Execute(func(j int) bool {
		if p.coin[j] == coinUnset {
			panic(fmt.Sprintf("rounding: Finalize with unassigned coin %d", j))
		}
		return p.coin[j] == 1
	})
}
