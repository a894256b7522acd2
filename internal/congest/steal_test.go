package congest

import (
	"fmt"
	"runtime"
	"testing"

	"congestds/internal/graph"
)

// skewedStep is a deliberately unbalanced workload: nodes in the first
// chunk-sized block burn far more compute per Step than the rest, so under
// static chunk assignment one worker's range dominates the round while the
// other workers idle. The accumulator (the node's out entry) folds the
// spin result in, so the work cannot be optimized away and any engine bug
// that skips it changes the output.
type skewedStep struct {
	out        []int64
	rounds     int
	heavyBelow int // nodes below it are heavy
}

func (s *skewedStep) spin(nd *Node) {
	iters := 40
	if nd.V() < s.heavyBelow {
		iters = 4000
	}
	x := nd.ID()
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	s.out[nd.V()] ^= x
}

func (s *skewedStep) Init(nd *Node) bool {
	acc := &s.out[nd.V()]
	*acc = nd.ID()
	s.spin(nd)
	nd.Broadcast(AppendVarint(nd.PayloadBuf(4), *acc&0x3fff))
	return false
}

func (s *skewedStep) Step(nd *Node, round int, in []Incoming) bool {
	s.spin(nd)
	acc := &s.out[nd.V()]
	for i, msg := range in {
		v, _ := Varint(msg.Payload, 0)
		*acc = *acc*31 + v*int64(i+1)
	}
	if round+1 >= s.rounds {
		return true
	}
	nd.Broadcast(AppendVarint(nd.PayloadBuf(4), *acc&0x3fff))
	return false
}

// TestSteppedStealingDeterminism pins the work-stealing invariant: which
// worker claims which chunk varies with GOMAXPROCS and scheduling, but
// outputs and metrics must not. The workload is heavily skewed so that
// stealing actually happens whenever more than one worker is running.
func TestSteppedStealingDeterminism(t *testing.T) {
	g := graph.Torus(40, 40) // 1600 nodes: several chunks even at P=1
	run := func(procs int) ([]int64, Metrics) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		out := make([]int64, g.N())
		m, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(&skewedStep{out: out, rounds: 6, heavyBelow: g.N() / 8})
		if err != nil {
			t.Fatalf("p=%d: %v", procs, err)
		}
		return out, m
	}
	refOut, refM := run(1)
	for _, procs := range []int{2, 3, 4, 8} {
		out, m := run(procs)
		if m != refM {
			t.Errorf("p=%d: metrics %+v != p=1 reference %+v", procs, m, refM)
		}
		for v := range out {
			if out[v] != refOut[v] {
				t.Fatalf("p=%d: node %d output %d != reference %d (stealing is nondeterministic)",
					procs, v, out[v], refOut[v])
			}
		}
	}
}

// TestSteppedStealingRace drives the claimed-chunk sweep with multiple
// workers and live stealing under the race detector (the CI race pass runs
// this in -short mode): cross-chunk collects, per-chunk arena writes and
// the claim counter must all be race-clean.
func TestSteppedStealingRace(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := graph.Torus(36, 36)
	out := make([]int64, g.N())
	m, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(&skewedStep{out: out, rounds: 5, heavyBelow: g.N() / 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 5 {
		t.Errorf("rounds=%d, want 5", m.Rounds)
	}
}

// TestSteppedChunkOversubscription pins the steal granularity: large graphs
// must be split into strictly more chunks than workers (or there is nothing
// to steal), while graphs below minChunkNodes stay a single claim.
func TestSteppedChunkOversubscription(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	probe := func(n int) int {
		p := runtime.GOMAXPROCS(0)
		chunk := (n + chunksPerWorker*p - 1) / (chunksPerWorker * p)
		if chunk < minChunkNodes {
			chunk = minChunkNodes
		}
		if chunk > n {
			chunk = n
		}
		return (n + chunk - 1) / chunk
	}
	if got := probe(100); got != 1 {
		t.Errorf("n=100: %d chunks, want 1", got)
	}
	if got := probe(100_000); got <= 2 {
		t.Errorf("n=100000 at P=2: %d chunks, want > P for stealing", got)
	}
}

// BenchmarkSteppedSkewed measures the skewed workload that motivated chunk
// claiming: 1/8 of the nodes are ~100× more expensive. At GOMAXPROCS=1 the
// claim counter is pure overhead (the number to watch for regressions); at
// >1 worker the round tail is one chunk instead of one static range.
func BenchmarkSteppedSkewed(b *testing.B) {
	g := graph.Torus(128, 128)
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("p%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			net := NewNetwork(g, Config{Engine: EngineStepped})
			out := make([]int64, g.N())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.RunStepped(&skewedStep{out: out, rounds: 8, heavyBelow: g.N() / 8}); err != nil {
					b.Fatal(err)
				}
			}
			nodeRounds := float64(g.N()) * 8
			b.ReportMetric(nodeRounds*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
		})
	}
}
