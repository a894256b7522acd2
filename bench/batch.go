package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"time"

	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/mds"
	"congestds/internal/verify"
)

// Batch workloads: an op loads one graph from its .csrg file, solves and
// certifies it — what `mdsrun -in g.csrg` does per invocation — cycling
// through the workload's distinct graphs.

// batchOut is what one solve returned, in the shape the gate checks.
type batchOut struct {
	set    []int
	rounds int // measured plus charged
	// The paper pipeline's ledger split; zero for the families.
	measured  int
	charged   int
	phases    int
	certOK    bool
	cert      string // the certificate as the library rendered it
	setDigest uint32
}

// batchSpec is one batch workload.
type batchSpec struct {
	// graphs generates the distinct inputs from the seed.
	graphs func(seed uint64, tiny bool) []*graph.Graph
	// solve is the timed part after graph.Load: the solve and the
	// certificate a user of that algorithm gets.
	solve func(e *env, g *graph.Graph, parent, req int64) (batchOut, error)
	// recertify is the gate's independent check of one output against the
	// graph; it returns the certificate it computed, which must equal the
	// one the op reported.
	recertify func(e *env, g *graph.Graph, set []int) string
}

type batchInstance struct {
	e     *env
	spec  *batchSpec
	paths []string
	edges []int64
	first []*batchOut // first output per graph
	loads int
}

// setupBatch generates the graphs and writes each as .csrg.
func setupBatch(spec *batchSpec) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		b := &batchInstance{e: e, spec: spec}
		for i, g := range spec.graphs(e.seed, e.tiny) {
			path := filepath.Join(e.dir, fmt.Sprintf("g%d.csrg", i))
			if err := g.WriteCSRGFile(path); err != nil {
				return nil, err
			}
			b.paths = append(b.paths, path)
			b.edges = append(b.edges, int64(g.M()))
		}
		b.first = make([]*batchOut, len(b.paths))
		return b, nil
	}
}

func (b *batchInstance) clients() int { return 1 }
func (b *batchInstance) minOps() int  { return len(b.paths) }
func (b *batchInstance) close() error { return nil }

func (b *batchInstance) warm() error {
	r := b.op(0, 0)
	if r.failed {
		return fmt.Errorf("warm-up op failed")
	}
	return r.wrong
}

func (b *batchInstance) op(i, lane int) opResult {
	gi := i % len(b.paths)
	req := int64(i) + 1
	b.loads++
	// Every op starts from a collected heap: left to the pacer, whether a
	// cycle of the previous op's garbage lands inside this one is a coin
	// flip that moves a million-node op by a tenth.
	runtime.GC()
	root := b.e.tr.start("op", 0, req, lane)
	t0 := time.Now()
	ls := b.e.tr.start("graph.Load", root.id(), req, lane)
	g, closer, err := graph.Load(b.paths[gi])
	ls.endUnits(b.edges[gi])
	if err != nil {
		root.end()
		return opResult{lat: time.Since(t0), failed: true}
	}
	defer closer.Close()
	out, err := b.spec.solve(b.e, g, root.id(), req)
	lat := time.Since(t0)
	root.end()
	if err != nil {
		return opResult{lat: lat, failed: true}
	}
	return opResult{lat: lat, wrong: b.check(gi, g, &out)}
}

// check gates one op's output: the set dominates, the certificate passed,
// and the graph's output is the same as its first one (solves are
// deterministic).
func (b *batchInstance) check(gi int, g *graph.Graph, out *batchOut) error {
	if !verify.IsDominatingSet(g, out.set) {
		return fmt.Errorf("graph %d: output is not a dominating set", gi)
	}
	if !out.certOK {
		return fmt.Errorf("graph %d: certificate failed: %s", gi, out.cert)
	}
	out.setDigest = digestInts(out.set)
	first := b.first[gi]
	if first == nil {
		b.first[gi] = out
		return nil
	}
	if out.setDigest != first.setDigest || out.rounds != first.rounds || out.cert != first.cert {
		return fmt.Errorf("graph %d: output differs from the graph's first output", gi)
	}
	return nil
}

func (b *batchInstance) layers() map[string]float64 {
	m := map[string]float64{"graph.loads": float64(b.loads)}
	for _, out := range b.first {
		if out != nil {
			m["mds.rounds_measured"] += float64(out.measured)
			m["mds.rounds_charged"] += float64(out.charged)
			m["mds.phases"] += float64(out.phases)
		}
	}
	return m
}

// gate re-checks each graph's first output with the harness's own calls:
// the dual-packing lower bound behind approx_ratio_max and an independent
// certificate that must equal the one the op reported.
func (b *batchInstance) gate() (gateResult, error) {
	var res gateResult
	h := crc32.NewIEEE()
	for gi, path := range b.paths {
		out := b.first[gi]
		if out == nil {
			return res, fmt.Errorf("graph %d was never solved", gi)
		}
		ls := b.e.tr.start("graph.Load", 0, 0, 0)
		g, closer, err := graph.Load(path)
		ls.endUnits(b.edges[gi])
		if err != nil {
			return res, err
		}
		lbs := b.e.tr.start("verify.DualPackingLB", 0, 0, 0)
		lb := max(verify.DualPackingLB(g), 1)
		lbs.end()
		cert := b.spec.recertify(b.e, g, out.set)
		closer.Close()
		if cert != out.cert {
			return res, fmt.Errorf("graph %d: certificate %q, harness computed %q", gi, out.cert, cert)
		}
		res.approxRatioMax = max(res.approxRatioMax, float64(len(out.set))/lb)
		res.roundsTotal += out.rounds
		h.Write(binary.LittleEndian.AppendUint32(nil, out.setDigest))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(out.rounds)))
	}
	res.digest = fmt.Sprintf("%08x", h.Sum32())
	return res, nil
}

// digestInts is the CRC-32 of a set's members.
func digestInts(xs []int) uint32 {
	buf := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	return crc32.ChecksumIEEE(buf)
}

// paperThm12 is the source paper's Theorem 1.2 pipeline on the library
// default engine.
var paperThm12 = &batchSpec{
	graphs: func(seed uint64, tiny bool) []*graph.Graph {
		n, delta := 1500, 12
		if tiny {
			n, delta = 80, 7
		}
		gs := make([]*graph.Graph, 3)
		for i := range gs {
			gs[i] = gnpWithMaxDegree(n, delta, seed, uint64(i))
		}
		return gs
	},
	solve: func(e *env, g *graph.Graph, parent, req int64) (batchOut, error) {
		// Sim is left at its zero value: the library default engine.
		p := mds.Params{Eps: 0.5, Engine: mds.EngineColoring, Preset: mds.Practical}
		ss := e.tr.start("mds.Solve", parent, req, 0)
		if e.eng != nil {
			e.eng.parent.Store(ss.id())
			p.Observer = e.eng.observer()
		}
		res, err := mds.Solve(g, p)
		ss.end()
		if err != nil {
			return batchOut{}, err
		}
		cs := e.tr.start("verify.Certify", parent, req, 0)
		cert := verify.Certify(g, res.Set)
		cs.end()
		m := res.Ledger.Metrics()
		return batchOut{
			set: res.Set, rounds: m.TotalRounds(), measured: m.Rounds, charged: m.ChargedRounds,
			phases: len(res.Phases), cert: paperCert(cert),
			// The dual bound undershoots OPT, so ratio ≤ bound is a
			// sufficient check of the Theorem 1.2 guarantee.
			certOK: cert.Ratio <= res.Bound+1e-9,
		}, nil
	},
	recertify: func(e *env, g *graph.Graph, set []int) string {
		cs := e.tr.start("verify.Certify", 0, 0, 0)
		defer cs.end()
		return paperCert(verify.Certify(g, set))
	},
}

func paperCert(c verify.RatioCertificate) string {
	return fmt.Sprintf("size=%d LB=%g ratio=%g", c.Size, c.LowerBound, c.Ratio)
}

// gnpWithMaxDegree returns, of the first 16 graphs graph.Named("gnp", n, ·)
// draws from the workload seed, the first whose maximum degree is closest
// to delta. Part I of the paper pipeline runs a number of rounds fixed by
// Δ, so holding Δ keeps one workload's cost comparable across seeds.
func gnpWithMaxDegree(n, delta int, seed, index uint64) *graph.Graph {
	var best *graph.Graph
	for try := uint64(0); try < 16; try++ {
		g, err := graph.Named("gnp", n, subseed(seed, streamGraph, index<<8|try))
		if err != nil {
			panic(err) // "gnp" is a registered family
		}
		if best == nil || abs(g.MaxDegree()-delta) < abs(best.MaxDegree()-delta) {
			best = g
		}
		if g.MaxDegree() == delta {
			break
		}
	}
	return best
}

func abs(x int) int { return max(x, -x) }

// arb1M is the bounded-arboricity family on a million-node union of
// forests, memory-mapped fresh for every op, on the stepped engine.
var arb1M = &batchSpec{
	graphs: func(seed uint64, tiny bool) []*graph.Graph {
		n := 1_000_000
		if tiny {
			n = 3000
		}
		g, err := graph.Named("uforest", n, subseed(seed, streamGraph, 0))
		if err != nil {
			panic(err) // "uforest" is a registered family
		}
		return []*graph.Graph{g}
	},
	solve: func(e *env, g *graph.Graph, parent, req int64) (batchOut, error) {
		fam, err := family.Get("arbmds")
		if err != nil {
			return batchOut{}, err
		}
		p := family.Params{Eps: 0.5, Sim: congest.EngineStepped}
		ss := e.tr.start("family.Solve", parent, req, 0)
		if e.eng != nil {
			e.eng.parent.Store(ss.id())
			p.Observer = e.eng.observer()
		}
		res, err := fam.Solve(g, p)
		ss.end()
		if err != nil {
			return batchOut{}, err
		}
		return batchOut{set: res.Set, rounds: res.Rounds, cert: res.Cert.String(), certOK: res.Cert.Passed()}, nil
	},
	recertify: func(e *env, g *graph.Graph, set []int) string {
		cs := e.tr.start("verify.CertifyArb", 0, 0, 0)
		defer cs.end()
		return verify.CertifyArb(g, set, 0.5).String()
	},
}
