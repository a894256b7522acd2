package coloring_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"congestds/internal/coloring"
	"congestds/internal/derand"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/rounding"
)

// refDistance2Bipartite is the map-built reference: it materialises the
// conflict graph in nested maps, sorts every site's conflicts, and runs the
// map-based greedy below. Distance2Bipartite must reproduce it exactly.
func refDistance2Bipartite(nSites int, members [][]int32, participating []bool, ids []int64) *coloring.Result {
	// Build conflict adjacency: sites sharing a constraint.
	adj := make(map[int]map[int]struct{}, nSites)
	addConflict := func(a, b int) {
		if adj[a] == nil {
			adj[a] = make(map[int]struct{})
		}
		adj[a][b] = struct{}{}
	}
	for _, ms := range members {
		for i := 0; i < len(ms); i++ {
			if !participating[ms[i]] {
				continue
			}
			for j := i + 1; j < len(ms); j++ {
				if !participating[ms[j]] {
					continue
				}
				a, b := int(ms[i]), int(ms[j])
				if a != b {
					addConflict(a, b)
					addConflict(b, a)
				}
			}
		}
	}
	conflicts := func(v int, fn func(u int)) {
		us := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			us = append(us, u)
		}
		sort.Ints(us)
		for _, u := range us {
			fn(u)
		}
	}
	return refGreedy(nSites, ids, participating, conflicts)
}

// refGreedy colors active sites in ID order with a per-site map of used
// colors; the charged round count is the longest ID-decreasing chain.
func refGreedy(n int, ids []int64, active []bool, conflicts func(v int, fn func(u int))) *coloring.Result {
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if active[v] {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(i, j int) bool { return ids[order[i]] < ids[order[j]] })

	colors := make([]int, n)
	depth := make([]int, n) // rounds until v's color is decided
	for v := range colors {
		colors[v] = -1
	}
	num := 0
	maxDepth := 0
	for _, v := range order {
		used := make(map[int]struct{})
		d := 0
		conflicts(v, func(u int) {
			if !active[u] {
				return
			}
			if ids[u] < ids[v] {
				if colors[u] >= 0 {
					used[colors[u]] = struct{}{}
				}
				if depth[u] > d {
					d = depth[u]
				}
			}
		})
		c := 0
		for {
			if _, taken := used[c]; !taken {
				break
			}
			c++
		}
		colors[v] = c
		depth[v] = d + 1
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
		if c+1 > num {
			num = c + 1
		}
	}
	return &coloring.Result{Colors: colors, NumColors: num, Rounds: maxDepth}
}

// variedFDS gives node v the value (1 + v mod 8)/16, and 1 to every fifth
// node, so factor-two instances mix heavy and light members and one-shot
// instances (with multiplier 2) mix deterministic and participating sites.
// Dense graphs keep it feasible.
func variedFDS(g *graph.Graph) *fractional.CFDS {
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(uint64(1+v%8), 16, true)
		if v%5 == 0 {
			fds.X[v] = ctx.One()
		}
	}
	return fds
}

// participating marks the sites of inst that flip a coin, the sites that
// derand.ByColoring colours.
func participating(inst *rounding.Instance) []bool {
	part := make([]bool, len(inst.X))
	for j := range part {
		part[j] = !inst.Deterministic(j)
	}
	return part
}

// TestDistance2BipartiteMatchesMapReference pins the index-walked coloring
// to the map-built reference on G² (closed neighbourhoods, every node
// participating) and on the split bipartite instances of Lemmas 3.13/3.14
// (partial participation, several constraints per owner, sites listed under
// many constraints).
func TestDistance2BipartiteMatchesMapReference(t *testing.T) {
	type instance struct {
		name          string
		partial       bool // some but not all sites participate
		n             int
		members       [][]int32
		participating []bool
		ids           []int64
	}
	var cases []instance
	for _, fam := range []string{"gnp", "ba", "gridx", "uforest"} {
		g, err := graph.Named(fam, 300, 3)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]bool, g.N())
		for v := range all {
			all[v] = true
		}
		cases = append(cases, instance{fam + "/closed", false, g.N(), g.ClosedNeighborhoods(), all, g.IDs()})
	}
	for _, seed := range []uint64{1, 2} {
		g := graph.GNPConnected(120, 0.15, seed)
		fds := variedFDS(g)
		for _, s := range []int{1, 2, 3} {
			inst, err := derand.FactorTwoBipartite(g, fds, 0.5, 8, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(inst.Members) <= g.N() {
				t.Fatalf("factor-two s=%d: %d constraints, want splits beyond %d", s, len(inst.Members), g.N())
			}
			cases = append(cases, instance{fmt.Sprintf("factor2/seed%d/s%d", seed, s), true,
				g.N(), inst.Members, participating(inst), g.IDs()})
		}
		lnMul := fds.Ctx.FromFloat(2)
		inst, err := derand.OneShotBipartite(g, fds, uint64(g.N()), lnMul)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("oneshot/seed%d", seed), true,
			g.N(), inst.Members, participating(inst), g.IDs()})
	}
	// A constraint listing one site twice, and two conflicting sites with
	// equal IDs (neither waits for the other).
	cases = append(cases, instance{"handmade", true, 6,
		[][]int32{{0, 1, 2}, {2, 2, 3}, {3, 4, 5, 0}, {1, 4}, {5}, {1, 3}},
		[]bool{true, true, false, true, true, true},
		[]int64{60, 10, 30, 10, 50, 40}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parts := 0
			for _, p := range c.participating {
				if p {
					parts++
				}
			}
			if parts == 0 || c.partial != (parts < c.n) {
				t.Fatalf("%d of %d sites participate, partial=%v", parts, c.n, c.partial)
			}
			got := coloring.Distance2Bipartite(c.n, c.members, c.participating, c.ids)
			want := refDistance2Bipartite(c.n, c.members, c.participating, c.ids)
			if !slices.Equal(got.Colors, want.Colors) {
				t.Fatalf("colors differ from reference:\n got %v\nwant %v", got.Colors, want.Colors)
			}
			if got.NumColors != want.NumColors || got.Rounds != want.Rounds {
				t.Fatalf("NumColors/Rounds = %d/%d, reference %d/%d",
					got.NumColors, got.Rounds, want.NumColors, want.Rounds)
			}
		})
	}
}
