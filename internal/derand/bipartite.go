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

// OneShotBipartite builds the instance of Lemma 3.13 on the bipartite
// representation B of g (Section 3.3): value sites remain the graph nodes,
// x = min(1, lnΔ̃·x'), p = x, and each constraint keeps only a covering set
// of at most F members ("we reduce the degree on the left hand side to F").
func OneShotBipartite(g *graph.Graph, fds *fractional.CFDS, f uint64, lnDeltaTilde fixpoint.Value) (*rounding.Instance, error) {
	n := g.N()
	members := make([][]int32, n)
	// Covers are subsets of the N[v], so one flat array of n+2m entries
	// holds them all; each member list is a capped window of it.
	flat := make([]int32, 0, n+2*g.M())
	var buf []int32
	for v := 0; v < n; v++ {
		cover, err := coveringSet(g, fds, v, fds.Ctx.One(), buf)
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
		members[v] = flat[row:len(flat):len(flat)]
	}
	return rounding.OneShot(fds, lnDeltaTilde, members), nil
}

// FactorTwoBipartite builds the instance of Lemma 3.14: x = min(1,(1+ε)x'),
// participants (0 < x < 2/r) round with p = 1/2, sites with x = 0 keep 0
// deterministically (p = 0: firing would add nothing, and E[value] is 0
// either way) and the rest keep x (p = 1). Zero sites count as light for
// the split below, so they sit where a p = 1/2 site would. Each
// constraint node v is split
// into v1 (all heavy members, plus the light ones if fewer than s remain)
// and v2..vk carrying between s and 2s light members each, with constraints
// c(v_j) = min(1, Σ x'(members)). With s > Δ+1 no N[v] splits and, on a
// feasible input, every threshold is 1: that is Lemma 3.9's instance on the
// graph, with each N[v] listed heavy members first.
func FactorTwoBipartite(g *graph.Graph, fds *fractional.CFDS, eps float64, r uint64, s int) (*rounding.Instance, error) {
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
		switch {
		case x == 0:
			// Deterministic: firing would add 0, so a coin buys nothing.
		case x < twoOverR:
			inst.P[v] = ctx.Half()
		default:
			inst.P[v] = ctx.One()
		}
	}
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
	return inst, nil
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

// FDSFromOutcome converts a rounding outcome over node-aligned value sites
// back into a fractional dominating set on the graph ("the FDS on B induces
// an FDS on G by reverting the bipartite representation").
func FDSFromOutcome(ctx fixpoint.Ctx, out *rounding.Outcome) *fractional.CFDS {
	f := fractional.NewFDS(ctx, len(out.Values))
	copy(f.X, out.Values)
	return f
}
