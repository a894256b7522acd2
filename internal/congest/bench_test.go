package congest

import (
	"fmt"
	"runtime"
	"testing"

	"congestds/internal/graph"
)

// benchEngines runs fn once per engine per GOMAXPROCS setting. The stepped
// engine sizes its worker pool from GOMAXPROCS at run time, so the sweep
// measures real scheduler scaling, not b.RunParallel loop parallelism.
func benchEngines(b *testing.B, fn func(b *testing.B, eng Engine)) {
	for _, procs := range []int{1, 4, 8} {
		for _, eng := range Engines() {
			b.Run(fmt.Sprintf("p%d/%v", procs, eng), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				fn(b, eng)
			})
		}
	}
}

// BenchmarkEngine compares the execution engines head-to-head on sparse
// graphs, including the ≥100k-node torus that motivates the stepped
// scheduler. Reported time is per full Run (16 synchronous
// rounds); node-rounds/s is the cross-engine throughput figure.
func BenchmarkEngine(b *testing.B) {
	const rounds = 16
	for _, size := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus-4096", graph.Torus(64, 64)},
		{"torus-102400", graph.Torus(320, 320)},
		{"gnp-8192", graph.GNPConnected(8192, 4.0/8192, 11)},
	} {
		b.Run(size.name, func(b *testing.B) {
			benchEngines(b, func(b *testing.B, eng Engine) {
				net := NewNetwork(size.g, Config{Engine: eng})
				net.topology() // build the shared CSR layout outside the timer
				out := make([]int64, size.g.N())
				// The broadcast-and-fold workload (echoStep, shared with
				// the engine tests): every node broadcasts a small varint
				// every round and folds its inbox order-sensitively, the
				// message pattern of the paper's Part I/II phases. Payloads
				// come from PayloadBuf, so the goroutine engine allocates
				// per send (as real blocking programs do) while the stepped
				// engine serves them from its arena — each engine's
				// natural cost.
				prog := &echoStep{out: out, rounds: rounds}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := net.RunStepped(prog); err != nil {
						b.Fatal(err)
					}
				}
				nodeRounds := float64(size.g.N()) * rounds
				b.ReportMetric(nodeRounds*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
			})
		})
	}
}

// BenchmarkEngineBarrier isolates the barrier cost: no messages at all,
// just synchronous rounds. The goroutine engine runs the blocking form
// (its natural shape: every Sync parks on the global barrier); the stepped
// engine runs the silent StepProgram, whose "barrier" is just the worker
// sweep.
func BenchmarkEngineBarrier(b *testing.B) {
	g := graph.Torus(128, 128)
	const rounds = 32
	blocking := func(nd *Node) {
		for r := 0; r < rounds; r++ {
			nd.Sync()
		}
	}
	silent := &silentStep{rounds: rounds}
	benchEngines(b, func(b *testing.B, eng Engine) {
		net := NewNetwork(g, Config{Engine: eng})
		net.topology()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if eng == EngineStepped {
				_, err = net.RunStepped(silent)
			} else {
				_, err = net.Run(blocking)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNodeSend guards the Send hot path: the bandwidth budget is
// computed once per Network (NewNetwork), so each Send is a bounds check, a
// field read and an outbox append — no bits.Len/multiply per message and no
// allocation after the outbox reaches the node's degree.
func BenchmarkNodeSend(b *testing.B) {
	g := graph.Star(17)
	net := NewNetwork(g, Config{})
	nd := &Node{net: net, v: 0, io: &nodeIO{}} // the hub: degree 16, ports 0..15
	payload := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nd.Send(i&15, payload)
	}
}

// BenchmarkBroadcast times one Broadcast from the hub of Star(4096) onto an
// empty outbox, the send pattern of a high-degree node. Send appends
// without scanning when the port is above every queued one, so this is
// O(Δ), not Δ²/2 port compares.
func BenchmarkBroadcast(b *testing.B) {
	g := graph.Star(4096)
	net := NewNetwork(g, Config{})
	nd := &Node{net: net, v: 0, io: &nodeIO{}} // the hub: degree 4095
	payload := []byte{1, 2, 3, 4}
	b.ReportAllocs()
	for b.Loop() {
		nd.io.outbox = nd.io.outbox[:0]
		nd.Broadcast(payload)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nd.Degree()), "ns/port")
}

// silentStep advances through rounds without sending.
type silentStep struct{ rounds int }

func (s *silentStep) Init(nd *Node) bool { return false }
func (s *silentStep) Step(nd *Node, round int, in []Incoming) bool {
	return round+1 >= s.rounds
}

// BenchmarkBuildTopology times the CSR slot layout of a 2·10⁵-node union of
// forests, and reports ns per edge.
func BenchmarkBuildTopology(b *testing.B) {
	g := graph.UnionForests(200_000, graph.DefaultArbAlpha, 7)
	net := NewNetwork(g, Config{})
	for b.Loop() {
		buildTopology(net)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
}
