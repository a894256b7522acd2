package derand

import (
	"cmp"
	"fmt"
	"slices"

	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// BipartiteInstance is a rounding instance built on the (degree-reduced or
// split) bipartite representation B of a graph (Section 3.3): value sites
// remain the graph nodes (the right-hand copies V_R), while the constraints
// are the modified left-hand copies. Participating reports which sites flip
// coins — the set S that Lemma 3.10 requires to be distance-2 colored.
type BipartiteInstance struct {
	Inst *rounding.Instance
	// Participating[j] is true when p(j) ∉ {0,1}.
	Participating []bool
	// LeftDegree is the maximum constraint size after reduction/splitting
	// (Δ_L of Lemma 3.12, the CONGEST simulation factor).
	LeftDegree int
}

// OneShotBipartite builds the instance of Lemma 3.13: x = min(1, lnΔ̃·x'),
// p = x, and each constraint keeps only a covering set of at most F members
// ("we reduce the degree on the left hand side to F").
func OneShotBipartite(g *graph.Graph, fds *fractional.CFDS, f uint64, lnDeltaTilde fixpoint.Value) (*BipartiteInstance, error) {
	ctx := fds.Ctx
	n := g.N()
	inst := &rounding.Instance{
		Ctx:     ctx,
		X:       make([]fixpoint.Value, n),
		P:       make([]fixpoint.Value, n),
		C:       make([]fixpoint.Value, n),
		Members: make([][]int32, n),
		Owner:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		x := ctx.Clamp1(ctx.MulUp(fds.X[v], lnDeltaTilde))
		inst.X[v] = x
		inst.P[v] = x
		inst.C[v] = ctx.One()
		inst.Owner[v] = int32(v)
	}
	maxLeft := 0
	// Covers are subsets of the N[v], so one flat array of n+2m entries
	// holds them all; each member list is a capped window of it.
	flat := make([]int32, 0, n+2*g.M())
	var buf []int32
	for v := 0; v < n; v++ {
		cover, err := coveringSet(g, fds, v, ctx.One(), buf)
		if err != nil {
			return nil, err
		}
		buf = cover[:0]
		if len(cover) > int(f) {
			// The input was promised 1/F-fractional; a cover of F members
			// always exists then. Larger covers indicate a caller bug.
			return nil, fmt.Errorf("derand: node %d needs %d > F=%d covering members", v, len(cover), f)
		}
		row := len(flat)
		flat = append(flat, cover...)
		inst.Members[v] = flat[row:len(flat):len(flat)]
		if len(cover) > maxLeft {
			maxLeft = len(cover)
		}
	}
	return finishBipartite(inst, maxLeft), nil
}

// FactorTwoBipartite builds the instance of Lemma 3.14: x = min(1,(1+ε)x'),
// participants (x < 2/r) round with p = 1/2; each constraint node v is split
// into v1 (all heavy members, plus the light ones if fewer than s remain)
// and v2..vk carrying between s and 2s light members each, with constraints
// c(v_j) = min(1, Σ x'(members)).
func FactorTwoBipartite(g *graph.Graph, fds *fractional.CFDS, eps float64, r uint64, s int) (*BipartiteInstance, error) {
	if s < 1 {
		return nil, fmt.Errorf("derand: split size s=%d < 1", s)
	}
	ctx := fds.Ctx
	n := g.N()
	onePlusEps := ctx.Add(ctx.One(), ctx.FromFloat(eps))
	twoOverR := ctx.FromRatio(2, r, false)
	inst := &rounding.Instance{
		Ctx:     ctx,
		X:       make([]fixpoint.Value, n),
		P:       make([]fixpoint.Value, n),
		C:       make([]fixpoint.Value, 0, n),
		Members: make([][]int32, 0, n),
		Owner:   make([]int32, 0, n),
	}
	for v := 0; v < n; v++ {
		x := ctx.Clamp1(ctx.MulUp(fds.X[v], onePlusEps))
		inst.X[v] = x
		if x < twoOverR {
			inst.P[v] = ctx.Half()
		} else {
			inst.P[v] = ctx.One()
		}
	}
	maxLeft := 0
	addConstraint := func(owner int, members []int32) {
		if len(members) == 0 {
			return
		}
		var sum fixpoint.Value
		for _, u := range members {
			sum = ctx.Add(sum, fds.X[u])
		}
		c := fixpoint.Min(sum, ctx.One())
		if c == 0 {
			return
		}
		inst.C = append(inst.C, c)
		inst.Members = append(inst.Members, members)
		inst.Owner = append(inst.Owner, int32(owner))
		if len(members) > maxLeft {
			maxLeft = len(members)
		}
	}
	// Every member list is a capped window of one flat array of n+2m
	// entries holding each N[v] reordered heavy members first, then light
	// ones (each group in InclusiveNeighbors order).
	flat := make([]int32, 0, n+2*g.M())
	var lightBuf []int32
	for v := 0; v < n; v++ {
		row := len(flat)
		flat = g.InclusiveNeighbors(flat, v)
		nbrs := flat[row:len(flat):len(flat)]
		h := 0
		lightBuf = lightBuf[:0]
		for _, u := range nbrs {
			if inst.P[u] == ctx.One() {
				nbrs[h] = u
				h++
			} else {
				lightBuf = append(lightBuf, u)
			}
		}
		copy(nbrs[h:], lightBuf)
		heavy, light := nbrs[:h:h], nbrs[h:]
		if len(light) < s {
			// v1 takes everything (k = 1).
			addConstraint(v, nbrs)
			continue
		}
		addConstraint(v, heavy) // v1: heavy members only
		// Split light members into chunks of size in [s, 2s].
		q := len(light) / s
		base := len(light) / q
		rem := len(light) % q
		off := 0
		for i := 0; i < q; i++ {
			sz := base
			if i < rem {
				sz++
			}
			addConstraint(v, light[off:off+sz:off+sz])
			off += sz
		}
	}
	return finishBipartite(inst, maxLeft), nil
}

// coveringSet returns a minimal prefix (by descending x', ties by index) of
// v's inclusive neighbourhood whose x' values sum to at least threshold,
// sorted by index. The result reuses buf's storage.
func coveringSet(g *graph.Graph, fds *fractional.CFDS, v int, threshold fixpoint.Value, buf []int32) ([]int32, error) {
	ctx := fds.Ctx
	nbrs := g.InclusiveNeighbors(buf[:0], v)
	slices.SortFunc(nbrs, func(a, b int32) int {
		if c := cmp.Compare(fds.X[b], fds.X[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	var sum fixpoint.Value
	for i, u := range nbrs {
		sum = ctx.Add(sum, fds.X[u])
		if sum >= threshold {
			cover := nbrs[:i+1]
			slices.Sort(cover)
			return cover, nil
		}
	}
	return nil, fmt.Errorf("derand: input FDS leaves node %d uncovered", v)
}

func finishBipartite(inst *rounding.Instance, maxLeft int) *BipartiteInstance {
	part := make([]bool, len(inst.X))
	for j := range part {
		part[j] = !inst.Deterministic(j)
	}
	return &BipartiteInstance{Inst: inst, Participating: part, LeftDegree: maxLeft}
}

// FDSFromOutcome converts a rounding outcome over node-aligned value sites
// back into a fractional dominating set on the graph ("the FDS on B induces
// an FDS on G by reverting the bipartite representation").
func FDSFromOutcome(ctx fixpoint.Ctx, out *rounding.Outcome) *fractional.CFDS {
	f := fractional.NewFDS(ctx, len(out.Values))
	copy(f.X, out.Values)
	return f
}
