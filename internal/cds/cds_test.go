package cds

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mcds"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// Solve and Extend reject a disconnected graph as caller misuse.
func TestSolveRejectsDisconnected(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Solve(g, mds.Params{})
	if got := congest.SentinelClass(err); got != "config" {
		t.Errorf("Solve: %v (class %q), want class config", err, got)
	}
	_, err = Extend(g, []int{0, 2}, nil)
	if got := congest.SentinelClass(err); got != "config" {
		t.Errorf("Extend: %v (class %q), want class config", err, got)
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	res, err := Solve(graph.Path(0), mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 0 {
		t.Error("empty graph should have empty CDS")
	}
	res, err = Solve(graph.Path(1), mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 1 {
		t.Errorf("single node CDS size %d, want 1", len(res.CDS))
	}
}

func TestCDSAcrossFamilies(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path20", graph.Path(20)},
		{"cycle16", graph.Cycle(16)},
		{"star14", graph.Star(14)},
		{"grid5x5", graph.Grid(5, 5)},
		{"gnp50", graph.GNPConnected(50, 0.1, 3)},
		{"caterpillar", graph.Caterpillar(6, 3)},
		{"tree", graph.CompleteTree(2, 4)},
		{"disk", graph.UnitDiskConnected(60, 0.25, 4)},
	}
	for _, tt := range graphs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, mds.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
				t.Fatalf("invalid CDS: %v", err)
			}
			// Section 4 size bound: |CDS| ≤ 3|S| (we add ≤ 2 inner nodes per
			// used G_S edge, with ≤ |S|−1 edges used).
			if len(res.CDS) > 3*len(res.DS) {
				t.Errorf("|CDS|=%d exceeds 3|DS|=%d", len(res.CDS), 3*len(res.DS))
			}
			if res.Ledger.Metrics().TotalRounds() <= 0 {
				t.Error("no rounds charged")
			}
		})
	}
}

func TestCDSWithDecompositionEngine(t *testing.T) {
	g := graph.GNPConnected(40, 0.12, 9)
	res, err := Solve(g, mds.Params{Engine: mds.EngineDecomposition})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		t.Fatal(err)
	}
}

// Theorem 1.4 bound (against exact MDS optimum, since OPT_CDS ≥ OPT_DS):
// |CDS| ≤ 3·(1+ε)(1+ln(Δ+1))·OPT_DS on small graphs.
func TestCDSApproximationBound(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path12", graph.Path(12)},
		{"cycle13", graph.Cycle(13)},
		{"grid4x4", graph.Grid(4, 4)},
		{"gnp22", graph.GNPConnected(22, 0.2, 11)},
	}
	for _, tt := range graphs {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, mds.Params{Eps: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			opt := len(baseline.Exact(tt.g))
			if float64(len(res.CDS)) > res.Bound*float64(opt)+1e-9 {
				t.Errorf("|CDS|=%d exceeds bound %.2f × OPT %d", len(res.CDS), res.Bound, opt)
			}
		})
	}
}

// A set that leaves a node undominated, or holds a member outside [0, n)
// beside members that do dominate, is an error, never a panic.
func TestExtendRejectsNonDominating(t *testing.T) {
	g := graph.Path(6)
	for _, ds := range [][]int{{0}, {1, 4, -1}, {1, 4, 6}} {
		if _, err := Extend(g, ds, nil); err == nil {
			t.Errorf("Extend(%v) accepted", ds)
		}
	}
}

func TestExtendKeepsDSMembers(t *testing.T) {
	g := graph.Cycle(15)
	ds := baseline.Greedy(g)
	res, err := Extend(g, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[int]bool)
	for _, v := range res.CDS {
		in[v] = true
	}
	for _, v := range ds {
		if !in[v] {
			t.Errorf("DS member %d missing from CDS", v)
		}
	}
}

func TestCDSDeterministic(t *testing.T) {
	g := graph.GNPConnected(36, 0.15, 5)
	a, err := Solve(g, mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CDS) != len(b.CDS) {
		t.Fatal("non-deterministic CDS size")
	}
	for i := range a.CDS {
		if a.CDS[i] != b.CDS[i] {
			t.Fatal("non-deterministic CDS")
		}
	}
}

// Claim 4.1: G_S is connected iff G is connected — indirectly verified by
// connectClusters succeeding on every connected family above; here check a
// long path explicitly, where G_S connectivity relies on distance-3 edges.
func TestGSConnectivityOnPath(t *testing.T) {
	g := graph.Path(30)
	res, err := Solve(g, mds.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCDS(g, res.CDS); err != nil {
		t.Fatal(err)
	}
}

func TestRulingSetSeparation(t *testing.T) {
	g := graph.Path(40)
	ds := baseline.Greedy(g)
	res, err := Extend(g, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RulingSet) < 2 {
		t.Fatalf("ruling set %v: want several centres on a long path", res.RulingSet)
	}
	// Centres are pairwise at G_S distance ≥ alpha ≥ 2, so no two are G_S
	// neighbours: verify pairwise G-distance > 3 (one G_S hop).
	for i := 0; i < len(res.RulingSet); i++ {
		for j := i + 1; j < len(res.RulingSet); j++ {
			if d := g.Dist(res.RulingSet[i], res.RulingSet[j]); d <= 3 {
				t.Errorf("centres %d,%d at G-distance %d (G_S neighbours)",
					res.RulingSet[i], res.RulingSet[j], d)
			}
		}
	}
}

// The two connectors over one dominating set: mcds's native connector
// (Ghaffari's BFS-orientation connect phase, executed as messages) and
// Extend's §4 construction applied to mcds's own threshold-peel set must
// each keep every DS member and add at most two connectors per dominator
// plus the root.
func TestNativeConnectorSizeAndMembers(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path30", graph.Path(30)},
		{"grid6x6", graph.Grid(6, 6)},
		{"gnp50", graph.GNPConnected(50, 0.08, 13)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			res, err := mcds.Solve(tt.g, mcds.Params{Run: congest.Run{Sim: congest.EngineStepped}})
			if err != nil {
				t.Fatal(err)
			}
			ext, err := Extend(tt.g, res.DS, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				form string
				cds  []int
			}{{"native", res.CDS}, {"§4", ext.CDS}} {
				if len(c.cds) > 3*len(res.DS)+1 {
					t.Errorf("%s: |CDS|=%d exceeds 3|DS|+1=%d", c.form, len(c.cds), 3*len(res.DS)+1)
				}
				for _, v := range res.DS {
					if _, ok := slices.BinarySearch(c.cds, v); !ok {
						t.Errorf("%s: DS member %d missing from CDS", c.form, v)
					}
				}
			}
		})
	}
}

// On 14 graph.Named families at n ∈ {1, 2, 5, 30, 200, 1500}, each with the
// greedy set, mds.Solve's set and all nodes as input, Extend gives the same
// CDS and RulingSet as the map-based reference, and the ruling set holds
// its two properties on G_S: centres are pairwise ≥ α apart, and every
// member is within α−1 of a centre. Star and complete are left out: their
// G_S is complete at every n.
func TestExtendMatchesReference(t *testing.T) {
	for _, family := range graph.Families() {
		if family == "star" || family == "complete" {
			continue
		}
		for _, n := range []int{1, 2, 5, 30, 200, 1500} {
			g, err := graph.Named(family, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mds.Solve(g, mds.Params{})
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, g.N())
			for v := range all {
				all[v] = v
			}
			for _, in := range []struct {
				name string
				ds   []int
			}{{"greedy", baseline.Greedy(g)}, {"mds", m.Set}, {"all", all}} {
				t.Run(fmt.Sprintf("%s-%d-%s", family, n, in.name), func(t *testing.T) {
					res, err := Extend(g, in.ds, nil)
					if err != nil {
						t.Fatal(err)
					}
					wantCDS, wantRS := referenceExtend(g, in.ds)
					if !slices.Equal(res.CDS, wantCDS) {
						t.Errorf("CDS %v, reference %v", res.CDS, wantCDS)
					}
					if !slices.Equal(res.RulingSet, wantRS) {
						t.Errorf("RulingSet %v, reference %v", res.RulingSet, wantRS)
					}
					checkRulingSet(t, g, in.ds)
				})
			}
		}
	}
}

// checkRulingSet measures the ruling set's two properties on G_S.
func checkRulingSet(t *testing.T, g *graph.Graph, ds []int) {
	members := slices.Compact(slices.Sorted(slices.Values(ds)))
	if len(members) <= 1 {
		return
	}
	alpha := max(2, int(math.Ceil(math.Log2(float64(g.N()+1)))))
	gs := buildGS(g, members)
	centres := gs.rulingSet(g, alpha)
	isCentre := make([]bool, len(members))
	for _, c := range centres {
		isCentre[c] = true
	}
	near := make([]bool, len(members))
	for _, c := range centres {
		for v, d := range gs.bfs(c) {
			if isCentre[v] && v != c && d >= 0 && d < alpha {
				t.Fatalf("centres %d, %d at G_S distance %d < α = %d", members[c], members[v], d, alpha)
			}
			near[v] = near[v] || (d >= 0 && d <= alpha-1)
		}
	}
	if i := slices.Index(near, false); i >= 0 {
		t.Fatalf("member %d farther than α−1 = %d from every centre", members[i], alpha-1)
	}
}

// bfs returns the G_S hop distance from position src to every position, -1
// where unreachable.
func (gs *gsGraph) bfs(src int) []int {
	dist := make([]int, len(gs.nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, e := range gs.adj[v] {
			if dist[e.to] < 0 {
				dist[e.to] = dist[v] + 1
				queue = append(queue, int(e.to))
			}
		}
	}
	return dist
}

// Repeated or unsorted members count once: Extend gives the distinct sorted
// set's CDS and RulingSet.
func TestExtendRepeatedMembers(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star8", graph.Star(8)},
		{"path4", graph.Path(4)},
		{"path40", graph.Path(40)},
		{"grid6x6", graph.Grid(6, 6)},
		{"gnp50", graph.GNPConnected(50, 0.08, 13)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			distinct := baseline.Greedy(tt.g)
			want, err := Extend(tt.g, distinct, nil)
			if err != nil {
				t.Fatal(err)
			}
			reversed := slices.Clone(distinct)
			slices.Reverse(reversed)
			for _, ds := range [][]int{
				append(slices.Clone(distinct), distinct...),
				append(reversed, distinct[0]),
			} {
				got, err := Extend(tt.g, ds, nil)
				if err != nil {
					t.Fatalf("Extend(%v): %v", ds, err)
				}
				if !slices.Equal(got.CDS, want.CDS) || !slices.Equal(got.RulingSet, want.RulingSet) {
					t.Errorf("Extend(%v) = CDS %v, RulingSet %v; distinct set gives %v, %v",
						ds, got.CDS, got.RulingSet, want.CDS, want.RulingSet)
				}
			}
		})
	}
	// The star's centre given twice is one member, not two.
	res, err := Extend(graph.Star(8), []int{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.CDS, []int{0}) {
		t.Errorf("Star(8) from [0 0]: CDS %v, want [0]", res.CDS)
	}
}

// referenceExtend is the map-based §4 transform Extend replaced, kept as an
// oracle for distinct, sorted members: G_S stores a realizing path per member
// pair in a map, and the ruling set runs a depth-(α−1) BFS from every
// candidate looking for a centre. It returns the CDS and the ruling set.
func referenceExtend(g *graph.Graph, ds []int) (cdsNodes, ruling []int) {
	if len(ds) <= 1 {
		return append([]int(nil), ds...), nil
	}
	alpha := max(2, int(math.Ceil(math.Log2(float64(g.N()+1)))))
	nodes := slices.Sorted(slices.Values(ds))
	index := make(map[int]int, len(nodes))
	inS := make([]bool, g.N())
	for i, v := range nodes {
		index[v] = i
		inS[v] = true
	}
	adj := make([][]int, len(nodes))
	paths := make(map[[2]int][]int)
	key := func(a, b int) [2]int { return [2]int{min(a, b), max(a, b)} }
	dist, parent := make([]int, g.N()), make([]int, g.N())
	for v := range dist {
		dist[v] = -1
	}
	for si, s := range nodes {
		dist[s], parent[s] = 0, -1
		queue := []int{s}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == 3 {
				continue
			}
			for _, un := range g.Neighbors(v) {
				if u := int(un); dist[u] < 0 {
					dist[u], parent[u] = dist[v]+1, v
					queue = append(queue, u)
				}
			}
		}
		for _, t := range queue {
			if t == s || !inS[t] || hasKey(paths, key(si, index[t])) {
				continue
			}
			var path []int
			for v := t; v != -1; v = parent[v] {
				path = append(path, v)
			}
			ti := index[t]
			paths[key(si, ti)] = path
			adj[si] = append(adj[si], ti)
			adj[ti] = append(adj[ti], si)
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	for _, row := range adj {
		slices.Sort(row)
	}

	// Ruling set: a candidate is selected unless a BFS of depth α−1 from it
	// meets a centre.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(g.ID(nodes[a]), g.ID(nodes[b])) })
	selected := make([]bool, len(nodes))
	var centres []int
	gsDist := make([]int, len(nodes))
	for i := range gsDist {
		gsDist[i] = -1
	}
	for _, cand := range order {
		gsDist[cand] = 0
		queue := []int{cand}
		ok := true
		for qi := 0; qi < len(queue) && ok; qi++ {
			v := queue[qi]
			if selected[v] {
				ok = false
			} else if gsDist[v] < alpha-1 {
				for _, u := range adj[v] {
					if gsDist[u] < 0 {
						gsDist[u] = gsDist[v] + 1
						queue = append(queue, u)
					}
				}
			}
		}
		for _, v := range queue {
			gsDist[v] = -1
		}
		if ok {
			selected[cand] = true
			centres = append(centres, cand)
		}
	}
	slices.Sort(centres)
	for _, c := range centres {
		ruling = append(ruling, nodes[c])
	}

	inCDS := make([]bool, g.N())
	mark := func(path []int) {
		for _, v := range path {
			inCDS[v] = true
		}
	}
	mark(nodes)
	// Clusters by multi-source BFS; tree edges' paths join the CDS.
	clusterOf := make([]int, len(nodes))
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	for _, c := range centres {
		clusterOf[c] = c
	}
	queue := append([]int(nil), centres...)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, u := range adj[v] {
			if clusterOf[u] < 0 {
				clusterOf[u] = clusterOf[v]
				mark(paths[key(u, v)])
				queue = append(queue, u)
			}
		}
	}
	// Cluster graph: the lexicographically smallest G_S edge per cluster
	// pair, then a BFS tree from the smallest centre.
	reps := make(map[[2]int][2]int)
	for a := range adj {
		for _, b := range adj[a] {
			ca, cb := clusterOf[a], clusterOf[b]
			if a >= b || ca == cb {
				continue
			}
			if r, ok := reps[key(ca, cb)]; !ok || a < r[0] || (a == r[0] && b < r[1]) {
				reps[key(ca, cb)] = [2]int{a, b}
			}
		}
	}
	cadj := make([][]int, len(nodes))
	for k := range reps {
		cadj[k[0]] = append(cadj[k[0]], k[1])
		cadj[k[1]] = append(cadj[k[1]], k[0])
	}
	visited := make([]bool, len(nodes))
	visited[centres[0]] = true
	queue = []int{centres[0]}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		slices.Sort(cadj[c])
		for _, d := range cadj[c] {
			if !visited[d] {
				visited[d] = true
				queue = append(queue, d)
				r := reps[key(c, d)]
				mark(paths[key(r[0], r[1])])
			}
		}
	}
	for v, in := range inCDS {
		if in {
			cdsNodes = append(cdsNodes, v)
		}
	}
	return cdsNodes, ruling
}

func hasKey[K comparable, V any](m map[K]V, k K) bool {
	_, ok := m[k]
	return ok
}

// BenchmarkExtend times the §4 transform alone: mds.Solve's dominating set
// on each graph is built before the timer starts.
func BenchmarkExtend(b *testing.B) {
	for _, tc := range []struct {
		family string
		n      int
		seed   uint64
	}{{"gnp", 20000, 4}, {"ba", 20000, 4}} {
		g, err := graph.Named(tc.family, tc.n, tc.seed)
		if err != nil {
			b.Fatal(err)
		}
		m, err := mds.Solve(g, mds.Params{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%d-s%d", tc.family, tc.n, tc.seed), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Extend(g, m.Set, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
