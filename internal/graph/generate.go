package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
)

// rng returns a deterministic pseudo-random generator for workload
// construction. Generators are the only places in the repository that consume
// randomness; every distributed algorithm is deterministic.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc909))
}

// GNP returns an Erdős–Rényi G(n,p) graph drawn with the given seed.
func GNP(n int, p float64, seed uint64) *Graph {
	r := rng(seed)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				mustAdd(b, u, v)
			}
		}
	}
	return b.Graph()
}

// GNPConnected returns a connected G(n,p) sample: after drawing the random
// edges, each component is stitched to the previous one, in order of their
// smallest nodes, by an edge between those smallest nodes. The stitch
// edges are deterministic in the seed.
func GNPConnected(n int, p float64, seed uint64) *Graph {
	return stitch(GNP(n, p, seed))
}

// stitch returns g with its components stitched as GNPConnected describes.
// A connected g is returned as is.
func stitch(g *Graph) *Graph {
	comp, count := g.Components()
	if count <= 1 {
		return g
	}
	b := NewBuilder(g.N())
	g.Edges(func(u, v int) { mustAdd(b, u, v) })
	// Components are numbered in order of their smallest node.
	last, next := 0, 1
	for v, c := range comp {
		if c == next {
			mustAdd(b, last, v)
			last, next = v, next+1
		}
	}
	return b.Graph()
}

// Grid returns the rows×cols grid graph (4-neighbour mesh).
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(b, at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				mustAdd(b, at(r, c), at(r+1, c))
			}
		}
	}
	return b.Graph()
}

// Torus returns the rows×cols grid with wraparound edges.
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return (r%rows)*cols + (c % cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			mustAdd(b, at(r, c), at(r, c+1))
			mustAdd(b, at(r, c), at(r+1, c))
		}
	}
	return b.Graph()
}

// Path returns the path graph on n nodes.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		mustAdd(b, v, v+1)
	}
	return b.Graph()
}

// Cycle returns the cycle on n nodes (n ≥ 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		mustAdd(b, v, (v+1)%n)
	}
	return b.Graph()
}

// Star returns the star K_{1,n-1} with node 0 as the centre.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		mustAdd(b, 0, v)
	}
	return b.Graph()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			mustAdd(b, u, v)
		}
	}
	return b.Graph()
}

// CompleteTree returns the complete rooted tree with the given arity and
// depth (depth 0 is a single node).
func CompleteTree(arity, depth int) *Graph {
	total := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= arity
		total += level
	}
	b := NewBuilder(total)
	next := 1
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		var newFrontier []int
		for _, p := range frontier {
			for c := 0; c < arity; c++ {
				mustAdd(b, p, next)
				newFrontier = append(newFrontier, next)
				next++
			}
		}
		frontier = newFrontier
	}
	return b.Graph()
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			w := v ^ (1 << bit)
			if w > v {
				mustAdd(b, v, w)
			}
		}
	}
	return b.Graph()
}

// Caterpillar returns a caterpillar tree: a spine path of length spine where
// every spine node carries legs pendant leaves. Caterpillars are worst-case
// instances for naive dominating set heuristics.
func Caterpillar(spine, legs int) *Graph {
	n := spine + spine*legs
	b := NewBuilder(n)
	for v := 0; v+1 < spine; v++ {
		mustAdd(b, v, v+1)
	}
	next := spine
	for v := 0; v < spine; v++ {
		for l := 0; l < legs; l++ {
			mustAdd(b, v, next)
			next++
		}
	}
	return b.Graph()
}

// BarabasiAlbert returns a preferential-attachment graph: nodes arrive one at
// a time and attach m edges to existing nodes with probability proportional
// to degree. Produces heavy-tailed degree distributions (hub-dominated
// topologies, a hard case for degree-based heuristics).
func BarabasiAlbert(n, m int, seed uint64) *Graph {
	if m < 1 {
		m = 1
	}
	r := rng(seed)
	b := NewBuilder(n)
	// Repeated-endpoint list: classic O(m·n) preferential attachment.
	targets := make([]int, 0, 2*m*n)
	start := m + 1
	if start > n {
		start = n
	}
	for v := 0; v < start; v++ {
		for u := 0; u < v; u++ {
			mustAdd(b, u, v)
			targets = append(targets, u, v)
		}
	}
	for v := start; v < n; v++ {
		chosen := make(map[int]struct{}, m)
		for len(chosen) < m {
			u := targets[r.IntN(len(targets))]
			if u != v {
				chosen[u] = struct{}{}
			}
		}
		// Drain the set in sorted order: map iteration order would otherwise
		// leak into the repeated-endpoint list and make the generator
		// nondeterministic across calls with the same seed.
		picks := make([]int, 0, m)
		for u := range chosen {
			picks = append(picks, u)
		}
		sort.Ints(picks)
		for _, u := range picks {
			mustAdd(b, u, v)
			targets = append(targets, u, v)
		}
	}
	return b.Graph()
}

// UnitDisk returns a random geometric (unit-disk) graph: n points uniform in
// the unit square, an edge whenever two points are within radius. This is
// the standard model for the wireless ad-hoc and sensor networks that
// motivate the dominating set problem in the paper's introduction.
func UnitDisk(n int, radius float64, seed uint64) *Graph {
	r := rng(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				mustAdd(b, u, v)
			}
		}
	}
	return b.Graph()
}

// UnitDiskConnected returns a connected unit-disk sample, its components
// stitched like GNPConnected's.
func UnitDiskConnected(n int, radius float64, seed uint64) *Graph {
	return stitch(UnitDisk(n, radius, seed))
}

// Named constructs one of the benchmark families by name, as used by the
// command-line tools. Families: gnp, grid, torus, path, cycle, star, tree,
// hypercube, caterpillar, ba, disk, complete, plus the bounded-arboricity
// suite uforest, gridx, adag (see arb.go). Unknown names get an error that
// lists the sorted family names, so callers never have to cross-reference
// Families() by hand. A negative n is an error for every family.
func Named(family string, n int, seed uint64) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: family %q needs n >= 0 (got n = %d)", family, n)
	}
	switch family {
	case "gnp":
		p := 4.0 / float64(n)
		if n <= 16 {
			p = 0.5
		}
		return GNPConnected(n, p, seed), nil
	case "gnp-dense":
		return GNPConnected(n, math.Min(1, 16.0/float64(n)), seed), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 1 {
			side = 1
		}
		return Grid(side, side), nil
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 2 {
			side = 2
		}
		return Torus(side, side), nil
	case "path":
		return Path(n), nil
	case "cycle":
		if n < 3 {
			n = 3
		}
		return Cycle(n), nil
	case "star":
		return Star(n), nil
	case "tree":
		depth := int(math.Max(1, math.Round(math.Log2(float64(n+1))-1)))
		return CompleteTree(2, depth), nil
	case "hypercube":
		d := int(math.Max(1, math.Round(math.Log2(float64(n)))))
		return Hypercube(d), nil
	case "caterpillar":
		legs := 4
		spine := n / (legs + 1)
		if spine < 1 {
			spine = 1
		}
		return Caterpillar(spine, legs), nil
	case "ba":
		return BarabasiAlbert(n, 3, seed), nil
	case "disk":
		radius := 1.8 / math.Sqrt(float64(n))
		return UnitDiskConnected(n, radius, seed), nil
	case "complete":
		return Complete(n), nil
	case "uforest":
		return UnionForests(n, DefaultArbAlpha, seed), nil
	case "gridx":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 2 {
			side = 2
		}
		return GridDiagonals(side, side), nil
	case "adag":
		return RandomOutDAG(n, DefaultArbAlpha, seed), nil
	}
	known := Families()
	sort.Strings(known)
	return nil, fmt.Errorf("graph: unknown family %q (families: %s)",
		family, strings.Join(known, ", "))
}

// DefaultArbAlpha is the arboricity parameter Named uses for the
// parameterized bounded-arboricity families (uforest, adag).
const DefaultArbAlpha = 3

// Families lists the names accepted by Named.
func Families() []string {
	return []string{
		"gnp", "gnp-dense", "grid", "torus", "path", "cycle", "star",
		"tree", "hypercube", "caterpillar", "ba", "disk", "complete",
		"uforest", "gridx", "adag",
	}
}

func mustAdd(b *Builder, u, v int) {
	if err := b.Add(u, v); err != nil {
		panic("graph: generator produced invalid edge: " + err.Error())
	}
}
