package derand

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// refFactorTwoOnGraph is the plain factor-two instance of Lemma 3.9 as a
// graph builder of its own: x(v) = min(1, (1+ε)·x'(v)); nodes with
// 0 < x(v) < 2/r participate with p(v) = 1/2, nodes with x(v) = 0 get
// p(v) = 0 and the rest keep their value; the
// constraints are the inclusive neighbourhoods with threshold 1, each owned
// by its node. Engine I now rounds FactorTwoBipartite unsplit instead.
func refFactorTwoOnGraph(g *graph.Graph, fds *fractional.CFDS, eps float64, r uint64) *rounding.Instance {
	ctx := fds.Ctx
	n := g.N()
	onePlusEps := ctx.Add(ctx.One(), ctx.FromFloat(eps))
	twoOverR := ctx.FromRatio(2, r, false)
	inst := &rounding.Instance{
		Ctx:     ctx,
		X:       make([]fixpoint.Value, n),
		P:       make([]fixpoint.Value, n),
		C:       make([]fixpoint.Value, n),
		Members: g.ClosedNeighborhoods(),
		Owner:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		x := ctx.Clamp1(ctx.MulUp(fds.X[v], onePlusEps))
		inst.X[v] = x
		switch {
		case x == 0:
		case x < twoOverR:
			inst.P[v] = ctx.Half()
		default:
			inst.P[v] = ctx.One()
		}
		inst.C[v] = ctx.One()
		inst.Owner[v] = int32(v)
	}
	return inst
}

// randomFeasibleFDS draws a tenth of the values 0, a tenth at least 1/Δ̃
// and the rest below it, then raises every node whose N[v] is still short
// of 1 by its deficit. Raising x(v) only adds to other sums, so one pass
// makes it feasible.
func randomFeasibleFDS(g *graph.Graph, rng *rand.Rand) *fractional.CFDS {
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	light := ctx.FromRatio(1, uint64(g.MaxDegree()+1), false)
	for v := range fds.X {
		switch rng.IntN(10) {
		case 0:
		case 1:
			fds.X[v] = light + fixpoint.Value(rng.Uint64N(uint64(ctx.One()-light)))
		default:
			fds.X[v] = 1 + fixpoint.Value(rng.Uint64N(uint64(light)))
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
	return fds
}

// The unsplit Lemma 3.14 instance (split size Δ+2, as Engine I builds it)
// rounds exactly like the plain Lemma 3.9 instance it replaced: the same
// x, p, thresholds and member sets, bit-equal conditional costs for every
// coin at every step of the derandomization, and the same outcome. With
// r = Δ̃ most sites above 1/Δ̃ keep their value; with r = 4 nearly every
// site flips a coin, so a high-degree N[v] has more than 16 free members
// and rounding.Process.ConstraintUB falls back to its Chernoff estimator.
// ConstraintUB's result can depend on the order of the free members, which
// the heavy-first reordering must therefore keep.
func TestFactorTwoUnsplitMatchesGraphInstance(t *testing.T) {
	const eps = 0.25
	for _, fam := range []string{"gnp", "ba", "grid", "disk"} {
		for _, seed := range []uint64{1, 2} {
			g, err := graph.Named(fam, 160, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []uint64{uint64(g.MaxDegree() + 1), 4} {
				t.Run(fmt.Sprintf("%s/seed%d/r%d", fam, seed, r), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, r))
					fds := randomFeasibleFDS(g, rng)
					if err := fds.Check(g); err != nil {
						t.Fatal(err)
					}
					want := refFactorTwoOnGraph(g, fds, eps, r)
					got, err := FactorTwoBipartite(g, fds, eps, r, g.MaxDegree()+2)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.X, want.X) || !slices.Equal(got.P, want.P) ||
						!slices.Equal(got.C, want.C) || !slices.Equal(got.Owner, want.Owner) {
						t.Fatal("x, p, c or owners differ from the graph instance")
					}
					deterministic, participants := 0, 0
					for v := range want.X {
						if want.Deterministic(v) {
							deterministic++
						} else {
							participants++
						}
						a := slices.Sorted(slices.Values(got.Members[v]))
						b := slices.Sorted(slices.Values(want.Members[v]))
						if !slices.Equal(a, b) {
							t.Fatalf("node %d: members %v, want N[v] = %v", v, a, b)
						}
					}
					if deterministic == 0 || participants == 0 {
						t.Fatalf("%d deterministic and %d participating sites: want both kinds",
							deterministic, participants)
					}

					pg, err := rounding.NewProcess(got)
					if err != nil {
						t.Fatal(err)
					}
					pw, err := rounding.NewProcess(want)
					if err != nil {
						t.Fatal(err)
					}
					sameCosts := func(j int) {
						for _, b := range []bool{false, true} {
							if cg, cw := pg.ConditionalCost(j, b), pw.ConditionalCost(j, b); cg != cw {
								t.Fatalf("site %d: ConditionalCost(%v) = %d, graph instance %d", j, b, cg, cw)
							}
						}
					}
					for j := range want.X {
						sameCosts(j)
					}
					for j := range want.X {
						if !pw.Unassigned(j) {
							continue
						}
						sameCosts(j)
						if pg.DecideCoin(j) != pw.DecideCoin(j) {
							t.Fatalf("site %d: coins differ", j)
						}
					}
					og, ow := pg.Finalize(), pw.Finalize()
					if !slices.Equal(og.Values, ow.Values) || og.Rescued != ow.Rescued {
						t.Fatal("Finalize outcomes differ")
					}
				})
			}
		}
	}
}
