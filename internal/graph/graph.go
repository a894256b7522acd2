// Package graph provides the static graph substrate used by every algorithm
// in this repository: immutable adjacency structures, unique node
// identifiers for symmetry breaking, graph powers, bipartite double covers,
// breadth-first search, and connectivity queries.
//
// Nodes are indexed 0..N-1. Every node additionally carries a unique
// identifier (ID) which distributed algorithms use for deterministic
// symmetry breaking, exactly as the CONGEST model of the paper assumes
// (Section 2: "each node has a unique identifier").
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable simple undirected graph in compressed sparse row
// (CSR) form: node v's sorted neighbour list is
// targets[offsets[v]:offsets[v+1]]. The three flat slices are the entire
// representation — no per-node allocations, GC scans three pointers
// regardless of n, and the layout is exactly what the .csrg on-disk format
// (format.go) serializes, so a memory-mapped file can back a Graph with no
// translation. The zero value is the empty graph. Construct non-trivial
// graphs with a Builder or a generator.
type Graph struct {
	offsets []int64 // len N()+1; row bounds into targets, offsets[0] == 0
	targets []int32 // len 2·M(); concatenated sorted neighbour lists
	ids     []int64 // unique identifiers, ids[v] is node v's ID
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.targets) / 2 }

// ID returns the unique identifier of node v.
func (g *Graph) ID(v int) int64 { return g.ids[v] }

// IDs returns the identifier slice indexed by node. The caller must not
// modify the returned slice.
func (g *Graph) IDs() []int64 { return g.ids }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.offsets[v+1] - g.offsets[v]) }

// MaxDegree returns Δ, the maximum degree over all nodes (0 for the empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the sorted neighbour list of v. The caller must not
// modify the returned slice. The capacity is clamped to the row, so an
// append never clobbers the next node's row (the backing array may be a
// read-only memory mapping — see Mmap).
func (g *Graph) Neighbors(v int) []int32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
}

// InclusiveNeighbors appends v and its neighbours to dst and returns the
// result. This is N(v) in the paper's notation (the inclusive neighbourhood).
func (g *Graph) InclusiveNeighbors(dst []int32, v int) []int32 {
	dst = append(dst, int32(v))
	return append(dst, g.Neighbors(v)...)
}

// ClosedNeighborhoods returns N[v] = {v} ∪ N(v) for every node v, each in
// InclusiveNeighbors order, carved from one backing array of n+2m entries.
// The rows are capped, so appending to one never overwrites the next.
func (g *Graph) ClosedNeighborhoods() [][]int32 {
	flat := make([]int32, 0, g.N()+len(g.targets))
	rows := make([][]int32, g.N())
	for v := range rows {
		a := len(flat)
		flat = g.InclusiveNeighbors(flat, v)
		rows[v] = flat[a:len(flat):len(flat)]
	}
	return rows
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	list := g.Neighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(v) })
	return i < len(list) && list[i] == int32(v)
}

// Edges calls fn for every edge {u,v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Clone returns a deep copy of g. The copy is always heap-backed, so
// cloning a memory-mapped graph detaches it from the mapping.
func (g *Graph) Clone() *Graph {
	return &Graph{
		offsets: append([]int64(nil), g.offsets...),
		targets: append([]int32(nil), g.targets...),
		ids:     append([]int64(nil), g.ids...),
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, Δ=%d)", g.N(), g.M(), g.MaxDegree())
}

// Builder accumulates edges and produces an immutable Graph. Add rejects
// self loops and out-of-range endpoints; adding an existing edge is a no-op.
type Builder struct {
	n     int
	edges []uint64 // u<<32 | v with u < v, in Add order, repeats kept until Graph
	ids   []int64
}

// NewBuilder returns a Builder for a graph on n nodes with default
// identifiers (see DefaultIDs).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, ids: DefaultIDs(n)}
}

// ErrBadEdge is returned by Builder.Add for self loops or out-of-range
// endpoints.
var ErrBadEdge = errors.New("graph: invalid edge")

// Add inserts the undirected edge {u,v}. Adding an existing edge is a no-op.
func (b *Builder) Add(u, v int) error {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("%w: {%d,%d} with n=%d", ErrBadEdge, u, v, b.n)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
	return nil
}

// SetIDs overrides the node identifiers. The slice must have length n and
// contain pairwise distinct values.
func (b *Builder) SetIDs(ids []int64) error {
	if len(ids) != b.n {
		return fmt.Errorf("graph: SetIDs got %d ids for %d nodes", len(ids), b.n)
	}
	seen := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("graph: duplicate id %d", id)
		}
		seen[id] = struct{}{}
	}
	b.ids = append([]int64(nil), ids...)
	return nil
}

// Graph freezes the builder into an immutable Graph in CSR form. The edges
// are sorted and compacted first, so scattering them in order fills every
// row in ascending order.
func (b *Builder) Graph() *Graph {
	slices.Sort(b.edges)
	b.edges = slices.Compact(b.edges)
	offsets := make([]int64, b.n+1)
	for _, e := range b.edges {
		offsets[e>>32+1]++
		offsets[uint32(e)+1]++
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, offsets[b.n])
	next := append([]int64(nil), offsets[:b.n]...)
	for _, e := range b.edges {
		u, v := int32(e>>32), int32(uint32(e))
		targets[next[u]] = v
		next[u]++
		targets[next[v]] = u
		next[v]++
	}
	return &Graph{offsets: offsets, targets: targets, ids: append([]int64(nil), b.ids...)}
}

// DefaultIDs returns the deterministic default identifier assignment for n
// nodes: a fixed pseudo-random permutation of 1..n. Identifiers therefore
// use O(log n) bits, matching the CONGEST model's assumption that a message
// fits a constant number of IDs. The permutation is scrambled (not the
// identity) so that symmetry-breaking code paths are exercised honestly:
// algorithms must not assume node v has identifier v.
func DefaultIDs(n int) []int64 {
	type kv struct {
		key uint64
		v   int
	}
	keys := make([]kv, n)
	for v := 0; v < n; v++ {
		// SplitMix64 mixing: a bijection on uint64, so keys are distinct.
		x := uint64(v) + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		keys[v] = kv{key: x, v: v}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	ids := make([]int64, n)
	for rank, k := range keys {
		ids[k.v] = int64(rank + 1)
	}
	return ids
}

// FromEdges builds a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.Add(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// BFS runs a breadth-first search from src and returns the distance slice
// (-1 for unreachable nodes) and the parent slice (-1 for src and unreachable
// nodes).
func (g *Graph) BFS(src int) (dist, parent []int) {
	dist = make([]int, g.N())
	parent = make([]int, g.N())
	for v := range dist {
		dist[v] = -1
		parent[v] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.N())
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := int(queue[0])
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	return dist, parent
}

// Eccentricity returns the eccentricity of v within its connected
// component: the largest hop distance from v to any reachable node. One
// BFS, so it is usable on million-node graphs where Diameter (n BFS runs)
// is not.
func (g *Graph) Eccentricity(v int) int {
	if g.N() == 0 {
		return 0
	}
	dist, _ := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// DiamBound returns 2·Eccentricity(0)+2, the host-side diameter bound
// passed to algorithms run under the known-diameter assumption (see
// mcds.Params.DiamBound) when the caller knows none. On a connected graph
// it is at least the diameter. One BFS.
func (g *Graph) DiamBound() int { return 2*g.Eccentricity(0) + 2 }

// Dist returns the hop distance between u and v, or -1 if disconnected.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	dist, _ := g.BFS(u)
	return dist[v]
}

// IsConnected reports whether g is connected (the empty graph counts as
// connected).
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected components as a component index per node
// and the number of components.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.N())
	for v := range comp {
		comp[v] = -1
	}
	var queue []int32
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// Diameter returns the exact hop diameter of a connected graph by running a
// BFS from every node. It returns -1 if the graph is disconnected or empty.
// Intended for test and benchmark graphs (O(n·m)).
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		dist, _ := g.BFS(v)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
