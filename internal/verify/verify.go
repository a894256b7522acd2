// Package verify provides validators and optimality certificates for
// dominating sets: domination and connectivity checks, and LP-duality lower
// bounds used to certify approximation ratios on instances too large for
// exact solving.
package verify

import (
	"fmt"

	"congestds/internal/graph"
)

// IsDominatingSet reports whether set dominates g: every member is a node
// of g, and every node is in the set or adjacent to a member.
func IsDominatingSet(g *graph.Graph, set []int) bool {
	return CheckDominating(g, set) == nil
}

// CheckDominating returns why set is no dominating set of g — a member
// outside [0, n) or an undominated node — or nil.
func CheckDominating(g *graph.Graph, set []int) error {
	for _, v := range set {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("verify: member %d is not a node of the %d-node graph", v, g.N())
		}
	}
	if v := FirstUndominated(g, set); v != -1 {
		return fmt.Errorf("verify: node %d not dominated", v)
	}
	return nil
}

// FirstUndominated returns the first node not dominated by set, or -1. A
// member outside [0, n) is no node of g and dominates nothing;
// CheckDominating, IsDominatingSet and the certificates reject such a set
// outright.
func FirstUndominated(g *graph.Graph, set []int) int {
	in := make([]bool, g.N())
	for _, v := range set {
		if v >= 0 && v < g.N() {
			in[v] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return v
		}
	}
	return -1
}

// IsConnectedSet reports whether the subgraph of g induced by set is
// connected (the CDS condition; empty and singleton sets count as
// connected, a set with a member outside [0, n) never does). The check is
// a flat-slice BFS in O(n + m) — it certifies million-node connected
// dominating sets without map overhead.
func IsConnectedSet(g *graph.Graph, set []int) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		if v < 0 || v >= g.N() {
			return false
		}
		in[v] = true
	}
	if len(set) <= 1 {
		return true
	}
	// BFS inside the induced subgraph.
	visited := make([]bool, g.N())
	visited[set[0]] = true
	reached := 1
	queue := make([]int32, 1, len(set))
	queue[0] = int32(set[0])
	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		for _, u := range g.Neighbors(v) {
			if in[u] && !visited[u] {
				visited[u] = true
				reached++
				queue = append(queue, u)
			}
		}
	}
	return reached == len(set)
}

// CheckCDS verifies the connected dominating set conditions and returns a
// descriptive error on failure.
func CheckCDS(g *graph.Graph, set []int) error {
	if err := CheckDominating(g, set); err != nil {
		return err
	}
	if !IsConnectedSet(g, set) {
		return fmt.Errorf("verify: induced subgraph not connected")
	}
	return nil
}

// DualPackingLB returns a certified lower bound on the minimum (even
// fractional) dominating set of g, by constructing a feasible dual packing:
// values y(v) ≥ 0 with Σ_{u∈N(v)} y(u) ≤ 1 for every inclusive
// neighbourhood. By LP weak duality, Σ y ≤ OPT_f ≤ OPT. The packing is
// built greedily, preferring nodes whose inclusive neighbourhoods have small
// maximum degree (they constrain few others).
func DualPackingLB(g *graph.Graph) float64 {
	n := g.N()
	// load[u] = current Σ_{w∈N(u)} y(w), as exact multiples of 1/q with
	// q = lcm-free denominator: use integer arithmetic with denominator D.
	const denom = 1 << 20
	load := make([]int64, n)
	// Nodes with small inclusive-neighbourhood max degree first, ties by
	// index: a stable counting sort over v ascending, since weights are at
	// most Δ+1.
	weight := make([]int32, n)
	maxW := int32(0)
	for v := 0; v < n; v++ {
		w := int32(g.Degree(v) + 1)
		for _, u := range g.Neighbors(v) {
			if d := int32(g.Degree(int(u)) + 1); d > w {
				w = d
			}
		}
		weight[v] = w
		maxW = max(maxW, w)
	}
	next := make([]int32, maxW+2) // next[w]: order slot of the next node of weight w
	for _, w := range weight {
		next[w+1]++
	}
	for w := 1; w < len(next); w++ {
		next[w] += next[w-1]
	}
	order := make([]int32, n)
	for v, w := range weight {
		order[next[w]] = int32(v)
		next[w]++
	}
	var total int64
	for _, o := range order {
		v := int(o)
		// Max raise for y(v): slack of the tightest constraint over the
		// inclusive neighbourhoods containing v, i.e. all u ∈ N⁺(v).
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

// RatioCertificate bundles an approximation certificate: the achieved size,
// a lower bound on OPT, and the certified ratio size/LB (an upper bound on
// the true approximation ratio).
type RatioCertificate struct {
	Size       int
	LowerBound float64
	Ratio      float64
}

// Certify returns a RatioCertificate for a dominating set using the dual
// packing lower bound (and 1 as a floor for nonempty graphs).
func Certify(g *graph.Graph, set []int) RatioCertificate {
	c := RatioCertificate{Size: len(set)}
	c.LowerBound, c.Ratio = ratio(g, c.Size)
	return c
}

// ratio is the one ratio computation of every certificate: the
// dual-packing lower bound of g, floored at 1 on a nonempty graph, and
// size over it (0 on the empty graph).
func ratio(g *graph.Graph, size int) (lb, r float64) {
	lb = DualPackingLB(g)
	if g.N() > 0 && lb < 1 {
		lb = 1
	}
	if lb > 0 {
		r = float64(size) / lb
	}
	return lb, r
}
