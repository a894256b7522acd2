package rounding_test

import (
	"fmt"
	"math"
	"testing"

	"congestds/internal/derand"
	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// averagingCase is one instance the method of conditional expectations
// runs on.
type averagingCase struct {
	name string
	inst *rounding.Instance
}

// oneShotCase is Lemma 3.8's instance over a uniform 1/f-fractional FDS,
// feasible when every N[v] has at least f members. Every firing covers its
// constraint, so ConstraintUB always takes the product form.
func oneShotCase(g *graph.Graph, f uint64) *rounding.Instance {
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(1, f, false)
	}
	return rounding.OneShotOnGraph(g, fds, ctx.FromFloat(math.Log(float64(g.MaxDegree()+1))))
}

// factorTwoCases are Lemma 3.14's instances with r = 4 on dense gnp graphs,
// unsplit and split at s = 4. Every fifth x' is 0 and the rest 1/16,
// raised where N[v] falls short of 1, so the x = 0 sites keep 0 and the
// others flip a coin whose fire value falls short of the threshold.
// Unsplit, every N[v] then has more than 16 free members (the Chernoff
// estimator); split, no constraint has more than 8 (exhaustive
// enumeration).
func factorTwoCases(t *testing.T) []averagingCase {
	var cases []averagingCase
	for _, seed := range []uint64{1, 2} {
		g := graph.GNPConnected(60, 0.5, seed)
		ctx := fractional.ScaleFor(g.N())
		fds := fractional.NewFDS(ctx, g.N())
		for v := range fds.X {
			if v%5 != 0 {
				fds.X[v] = ctx.FromRatio(1, 16, false)
			}
		}
		var nbrs []int32
		for v := range fds.X {
			var sum fixpoint.Value
			nbrs = g.InclusiveNeighbors(nbrs[:0], v)
			for _, u := range nbrs {
				sum = ctx.Add(sum, fds.X[u])
			}
			if sum < ctx.One() {
				fds.X[v] += ctx.One() - sum
			}
		}
		for _, s := range []int{g.MaxDegree() + 2, 4} {
			inst, err := derand.FactorTwoBipartite(g, fds, 0.25, 4, s)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, averagingCase{fmt.Sprintf("factor-two/gnp/seed%d/s%d", seed, s), inst})
		}
	}
	return cases
}

// paths counts the constraints on which ConstraintUB, before any coin is
// fixed, enumerates and those on which it takes the Chernoff estimator:
// no single free firing covers the deficit, and at most 16 or more than 16
// free members have a nonzero fire value.
func paths(inst *rounding.Instance) (enumerate, chernoff int) {
	ctx := inst.Ctx
	for i, ms := range inst.Members {
		var fixed fixpoint.Value
		free, minFire := 0, ctx.One()
		for _, m := range ms {
			j := int(m)
			switch {
			case inst.P[j] == ctx.One():
				fixed = ctx.Add(fixed, inst.X[j])
			case !inst.Deterministic(j) && inst.FireValue(j) > 0:
				free++
				minFire = fixpoint.Min(minFire, inst.FireValue(j))
			}
		}
		switch {
		case fixed >= inst.C[i] || minFire >= inst.C[i]-fixed:
		case free <= 16:
			enumerate++
		default:
			chernoff++
		}
	}
	return enumerate, chernoff
}

// The factor-two cases reach both of ConstraintUB's inexact-input paths, so
// the averaging tests below check enumeration and the Chernoff estimator,
// not only the product form the one-shot cases take.
func TestFactorTwoCasesReachEveryPath(t *testing.T) {
	enumerate, chernoff := 0, 0
	for _, tc := range factorTwoCases(t) {
		e, c := paths(tc.inst)
		t.Logf("%s: %d constraints enumerate, %d use Chernoff", tc.name, e, c)
		enumerate += e
		chernoff += c
	}
	if enumerate == 0 || chernoff == 0 {
		t.Fatalf("%d enumerated and %d Chernoff constraints: want both", enumerate, chernoff)
	}
}

// cases is every instance the averaging tests run on: one-shot instances,
// whose constraints take the product form, and the factor-two ones.
func cases(t *testing.T) []averagingCase {
	cs := []averagingCase{{"one-shot/gnp18", oneShotCase(graph.GNPConnected(18, 0.25, 13), 3)}}
	for _, seed := range []uint64{1, 2, 3} {
		cs = append(cs, averagingCase{fmt.Sprintf("one-shot/gnp30/seed%d", seed),
			oneShotCase(graph.GNPConnected(30, 0.2, seed), 4)})
	}
	return append(cs, factorTwoCases(t)...)
}

// Averaging property: for every unassigned coin, min_b ConditionalCost ≤
// the unconditioned cost contribution (supermartingale step of the method of
// conditional expectations, Lemma 3.10's key inequality). Checked before
// every coin is fixed, in site order.
func TestConditionalCostAveraging(t *testing.T) {
	for _, tc := range cases(t) {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst
			ctx := inst.Ctx
			proc, err := rounding.NewProcess(inst)
			if err != nil {
				t.Fatal(err)
			}
			constraintsOf := make([][]int, len(inst.X))
			for i, ms := range inst.Members {
				for _, j := range ms {
					constraintsOf[j] = append(constraintsOf[j], i)
				}
			}
			slack := ctx.FromFloat(1e-6)
			for j := range inst.X {
				if !proc.Unassigned(j) {
					continue
				}
				// Unconditioned local cost.
				base := proc.ValueExp(j, -1, 0)
				for _, i := range constraintsOf[j] {
					base = ctx.Add(base, proc.ConstraintUB(i, -1, 0))
				}
				c0 := proc.ConditionalCost(j, false)
				c1 := proc.ConditionalCost(j, true)
				if min := fixpoint.Min(c0, c1); min > ctx.Add(base, slack) {
					t.Fatalf("site %d: min(cost)=%s exceeds base=%s",
						j, ctx.String(min), ctx.String(base))
				}
				proc.DecideCoin(j)
			}
		})
	}
}

// Full derandomized pass: fixing every coin greedily must end with realized
// size ≤ initial Phi (plus tiny quantization slack).
func TestDerandomizedSizeWithinPhi(t *testing.T) {
	for _, tc := range cases(t) {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst
			proc, err := rounding.NewProcess(inst)
			if err != nil {
				t.Fatal(err)
			}
			phi0 := inst.Ctx.Float(proc.Phi())
			for j := range inst.X {
				if proc.Unassigned(j) {
					proc.DecideCoin(j)
				}
			}
			size := inst.Ctx.Float(proc.Finalize().Size(inst.Ctx))
			if size > phi0+0.01*phi0+0.1 {
				t.Errorf("derandomized size %.4f exceeds Phi %.4f", size, phi0)
			}
		})
	}
}
