package verify

import (
	"math"
	"sort"
	"testing"

	"congestds/internal/graph"
)

func TestIsDominatingSet(t *testing.T) {
	g := graph.Star(6)
	if !IsDominatingSet(g, []int{0}) {
		t.Error("hub should dominate star")
	}
	if IsDominatingSet(g, []int{1}) {
		t.Error("single leaf cannot dominate star")
	}
	if !IsDominatingSet(graph.Path(0), nil) {
		t.Error("empty graph is dominated by empty set")
	}
	p := graph.Path(5)
	if !IsDominatingSet(p, []int{1, 3}) {
		t.Error("{1,3} dominates P5")
	}
	if IsDominatingSet(p, []int{0, 4}) {
		t.Error("{0,4} misses node 2")
	}
	if v := FirstUndominated(p, []int{0, 4}); v != 2 {
		t.Errorf("FirstUndominated=%d, want 2", v)
	}
}

func TestIsConnectedSet(t *testing.T) {
	g := graph.Cycle(6)
	if !IsConnectedSet(g, []int{0, 1, 2}) {
		t.Error("arc should be connected")
	}
	if IsConnectedSet(g, []int{0, 3}) {
		t.Error("antipodal pair is not connected")
	}
	if !IsConnectedSet(g, nil) || !IsConnectedSet(g, []int{4}) {
		t.Error("empty/singleton should be connected")
	}
}

func TestCheckCDS(t *testing.T) {
	g := graph.Path(5)
	if err := CheckCDS(g, []int{1, 2, 3}); err != nil {
		t.Errorf("valid CDS rejected: %v", err)
	}
	if err := CheckCDS(g, []int{1, 3}); err == nil {
		t.Error("disconnected DS accepted as CDS")
	}
	if err := CheckCDS(g, []int{0, 1}); err == nil {
		t.Error("non-dominating set accepted as CDS")
	}
}

func TestDualPackingLBProperties(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		opt  int // known optimum
	}{
		{"star10", graph.Star(10), 1},
		{"path7", graph.Path(7), 3},
		{"cycle9", graph.Cycle(9), 3},
		{"complete8", graph.Complete(8), 1},
		{"grid3x3", graph.Grid(3, 3), 3},
	} {
		t.Run(tt.name, func(t *testing.T) {
			lb := DualPackingLB(tt.g)
			if lb > float64(tt.opt)+1e-9 {
				t.Errorf("LB %.4f exceeds OPT %d — unsound certificate", lb, tt.opt)
			}
			if lb <= 0 {
				t.Errorf("LB %.4f not positive", lb)
			}
		})
	}
}

// The packing built by DualPackingLB must itself be feasible — re-verify.
func TestDualPackingFeasibleOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.GNPConnected(40, 0.1, seed)
		lb := DualPackingLB(g)
		// Sanity: LB ≥ n/Δ̃ would be ideal; at least require LB ≥ 1.
		if lb < 1 {
			t.Errorf("seed %d: LB=%.4f < 1", seed, lb)
		}
	}
}

// dualPackingLBReference is DualPackingLB as it stood with the comparator
// sort (sort.Slice by weight, then index) instead of the counting sort.
func dualPackingLBReference(g *graph.Graph) float64 {
	n := g.N()
	const denom = 1 << 20
	load := make([]int64, n)
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	weight := make([]int, n)
	for v := 0; v < n; v++ {
		w := g.Degree(v) + 1
		for _, u := range g.Neighbors(v) {
			if d := g.Degree(int(u)) + 1; d > w {
				w = d
			}
		}
		weight[v] = w
	}
	sort.Slice(order, func(i, j int) bool {
		if weight[order[i]] != weight[order[j]] {
			return weight[order[i]] < weight[order[j]]
		}
		return order[i] < order[j]
	})
	var total int64
	for _, v := range order {
		slack := int64(denom) - load[v]
		for _, u := range g.Neighbors(v) {
			if s := int64(denom) - load[int(u)]; s < slack {
				slack = s
			}
		}
		if slack <= 0 {
			continue
		}
		load[v] += slack
		for _, u := range g.Neighbors(v) {
			load[int(u)] += slack
		}
		total += slack
	}
	return float64(total) / denom
}

// TestDualPackingLBMatchesReference: the counting sort visits nodes in the
// comparator sort's order, so the bound is bit-equal on every family.
func TestDualPackingLBMatchesReference(t *testing.T) {
	for _, fam := range []string{"star", "complete", "grid", "gnp", "ba", "uforest", "gridx"} {
		for _, n := range []int{1, 40, 500} {
			for seed := uint64(1); seed <= 3; seed++ {
				g, err := graph.Named(fam, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, want := DualPackingLB(g), dualPackingLBReference(g)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s n=%d seed=%d: LB %v, reference %v", fam, n, seed, got, want)
				}
			}
		}
	}
}

func TestCertify(t *testing.T) {
	g := graph.Star(8)
	c := Certify(g, []int{0})
	if c.Size != 1 || c.LowerBound < 1 || c.Ratio > 1+1e-9 {
		t.Errorf("certificate wrong: %+v", c)
	}
}

// TestOutOfRangeMemberFailsEveryCheck: a member outside [0, n) is no node
// of g, so a set holding one — alone or beside a valid CDS — is rejected by
// every check and certificate. -1 in particular must not read as
// FirstUndominated's "all dominated".
func TestOutOfRangeMemberFailsEveryCheck(t *testing.T) {
	g := graph.Path(5)
	valid := []int{1, 2, 3}
	if !IsDominatingSet(g, valid) || CheckCDS(g, valid) != nil || CheckCDSComponents(g, valid) != nil ||
		!CertifyArb(g, valid, 0.5).OK || !CertifyCDS(g, valid, 0).OK {
		t.Fatalf("valid CDS %v rejected", valid)
	}
	for _, set := range [][]int{{-1}, {5}, {1, 2, 3, -1}, {1, 2, 3, 5}, {-1, 1, 2, 3}} {
		if IsDominatingSet(g, set) {
			t.Errorf("IsDominatingSet(%v) = true", set)
		}
		if CheckCDS(g, set) == nil {
			t.Errorf("CheckCDS(%v) = nil", set)
		}
		if CheckCDSComponents(g, set) == nil {
			t.Errorf("CheckCDSComponents(%v) = nil", set)
		}
		if c := CertifyArb(g, set, 0.5); c.OK {
			t.Errorf("CertifyArb(%v) passed: %v", set, c)
		}
		if c := CertifyCDS(g, set, 0); c.OK || c.Dominating || c.Connected {
			t.Errorf("CertifyCDS(%v) = %v, want not dominating, not connected, not ok", set, c)
		}
	}
}
