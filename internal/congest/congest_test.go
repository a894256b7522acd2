package congest

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"congestds/internal/graph"
)

// forEachEngine runs the test body once per execution engine. Blocking
// Programs run on the goroutine engine whatever Config.Engine says, so the
// stepped subtests pin that dispatch.
func forEachEngine(t *testing.T, fn func(t *testing.T, eng Engine)) {
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) { fn(t, eng) })
	}
}

func TestEngineString(t *testing.T) {
	if EngineGoroutine.String() != "goroutine" || EngineStepped.String() != "stepped" {
		t.Errorf("engine names wrong: %v %v", EngineGoroutine, EngineStepped)
	}
	if Engine(99).String() == "" {
		t.Error("unknown engine must still render")
	}
	if got := Engines(); len(got) != 2 || got[0] != EngineGoroutine || got[1] != EngineStepped {
		t.Errorf("Engines() = %v, want [goroutine stepped]", got)
	}
	if (Config{}).Engine != EngineStepped {
		t.Error("the zero Config must select EngineStepped")
	}
}

// Every node broadcasts its ID for one round; each node must receive exactly
// the IDs of its neighbours, sorted by port.
func TestOneRoundIDExchange(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Cycle(8)
		net := NewNetwork(g, Config{Engine: eng})
		got := make([][]int64, g.N())
		m, err := net.Run(func(nd *Node) {
			nd.Broadcast(AppendVarint(nil, nd.ID()))
			in := nd.Sync()
			ids := make([]int64, 0, len(in))
			for _, msg := range in {
				id, _ := Varint(msg.Payload, 0)
				ids = append(ids, id)
			}
			got[nd.V()] = ids
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != 1 {
			t.Errorf("rounds=%d, want 1", m.Rounds)
		}
		if m.Messages != int64(2*g.M()) {
			t.Errorf("messages=%d, want %d", m.Messages, 2*g.M())
		}
		for v := 0; v < g.N(); v++ {
			nbrs := g.Neighbors(v)
			if len(got[v]) != len(nbrs) {
				t.Fatalf("node %d received %d messages, want %d", v, len(got[v]), len(nbrs))
			}
			for i, w := range nbrs {
				if got[v][i] != g.ID(int(w)) {
					t.Errorf("node %d port %d: got id %d, want %d", v, i, got[v][i], g.ID(int(w)))
				}
			}
		}
	})
}

// Multi-round flood: distance from node 0 computed by message passing must
// equal BFS distance.
func TestFloodDistances(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Grid(5, 7)
		net := NewNetwork(g, Config{Engine: eng})
		dist := make([]int, g.N())
		_, err := net.Run(func(nd *Node) {
			my := -1
			if nd.ID() == 1 { // the node with the smallest ID is the source
				my = 0
			}
			for r := 0; r < 2*g.N(); r++ {
				if my == r {
					nd.Broadcast([]byte{1})
				}
				in := nd.Sync()
				if my < 0 && len(in) > 0 {
					my = r + 1
				}
			}
			dist[nd.V()] = my
		})
		if err != nil {
			t.Fatal(err)
		}
		src := -1
		for v := 0; v < g.N(); v++ {
			if g.ID(v) == 1 {
				src = v
			}
		}
		want, _ := g.BFS(src)
		for v := range dist {
			if dist[v] != want[v] {
				t.Errorf("node %d: flooded dist %d, want %d", v, dist[v], want[v])
			}
		}
	})
}

func TestBandwidthEnforced(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(4)
		net := NewNetwork(g, Config{BandwidthFactor: 1, Engine: eng})
		// Budget = 1·⌈log₂ 4⌉ = 2 bits; any 1-byte message exceeds it.
		_, err := net.Run(func(nd *Node) {
			nd.Broadcast([]byte{0xff})
			nd.Sync()
		})
		if !errors.Is(err, ErrBandwidth) {
			t.Fatalf("err=%v, want ErrBandwidth", err)
		}
	})
}

// TestNegativeBandwidthFactorDefaults: a negative factor means the default
// 16, like zero, and never switches the budget off.
func TestNegativeBandwidthFactorDefaults(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(3)
		net := NewNetwork(g, Config{BandwidthFactor: -1, Engine: eng})
		// Budget = 16·⌈log₂ 3⌉ = 32 bits.
		if got := net.BandwidthBits(); got != 32 {
			t.Errorf("BandwidthBits=%d, want 32", got)
		}
		m, err := net.Run(func(nd *Node) {
			nd.Broadcast(make([]byte, 1<<12))
			nd.Sync()
		})
		if !errors.Is(err, ErrBandwidth) {
			t.Fatalf("err=%v, want ErrBandwidth", err)
		}
		if m.BandwidthBits != 32 {
			t.Errorf("Metrics.BandwidthBits=%d, want 32", m.BandwidthBits)
		}
	})
}

func TestMaxRounds(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(2)
		net := NewNetwork(g, Config{MaxRounds: 5, Engine: eng})
		_, err := net.Run(func(nd *Node) {
			for {
				nd.Sync()
			}
		})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("err=%v, want ErrMaxRounds", err)
		}
	})
}

func TestNodesFinishingEarly(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(5)
		net := NewNetwork(g, Config{Engine: eng})
		var total atomic.Int64
		_, err := net.Run(func(nd *Node) {
			// Node with even V stops after round 1, odd nodes run 3 rounds.
			rounds := 1
			if nd.V()%2 == 1 {
				rounds = 3
			}
			for r := 0; r < rounds; r++ {
				nd.Broadcast([]byte{byte(r)})
				in := nd.Sync()
				total.Add(int64(len(in)))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if total.Load() == 0 {
			t.Error("no messages delivered")
		}
	})
}

func TestProgramPanicSurfacesAsError(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(3)
		net := NewNetwork(g, Config{Engine: eng})
		_, err := net.Run(func(nd *Node) {
			if nd.V() == 1 {
				panic("boom")
			}
			nd.Sync()
		})
		if err == nil {
			t.Fatal("panic did not surface as error")
		}
	})
}

func TestInvalidPort(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(3)
		net := NewNetwork(g, Config{Engine: eng})
		_, err := net.Run(func(nd *Node) {
			nd.Send(99, []byte{1})
			nd.Sync()
		})
		if err == nil {
			t.Fatal("invalid port accepted")
		}
	})
}

func TestSendReplacesSamePort(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(2)
		net := NewNetwork(g, Config{Engine: eng})
		var got []byte
		var count int64
		m, err := net.Run(func(nd *Node) {
			if nd.V() == 0 {
				nd.Send(0, []byte{1})
				nd.Send(0, []byte{2})
				nd.Sync()
				return
			}
			in := nd.Sync()
			if len(in) == 1 {
				got = in[0].Payload
				count = 1
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 || len(got) != 1 || got[0] != 2 {
			t.Errorf("got %v (count %d), want [2]", got, count)
		}
		if m.Messages != 1 {
			t.Errorf("replaced send double-counted: messages=%d, want 1", m.Messages)
		}
	})
}

// Determinism: an order-sensitive computation must produce identical results
// across runs despite goroutine scheduling — and identical results across
// engines.
func TestDeterministicAcrossRunsAndEngines(t *testing.T) {
	g := graph.GNPConnected(60, 0.1, 11)
	run := func(eng Engine) []int64 {
		net := NewNetwork(g, Config{Engine: eng})
		out := make([]int64, g.N())
		_, err := net.Run(func(nd *Node) {
			acc := nd.ID()
			for r := 0; r < 4; r++ {
				nd.Broadcast(AppendVarint(nil, acc))
				in := nd.Sync()
				for i, msg := range in {
					v, _ := Varint(msg.Payload, 0)
					acc = acc*31 + v*int64(i+1) // order-sensitive mix
				}
			}
			out[nd.V()] = acc
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(EngineGoroutine)
	for _, eng := range Engines() {
		a, b := run(eng), run(eng)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("%v node %d: run1=%d run2=%d", eng, v, a[v], b[v])
			}
			if a[v] != ref[v] {
				t.Fatalf("node %d: engine %v=%d, goroutine reference=%d", v, eng, a[v], ref[v])
			}
		}
	}
}

func TestNeighborID(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Star(4)
		net := NewNetwork(g, Config{Engine: eng})
		_, err := net.Run(func(nd *Node) {
			for p := 0; p < nd.Degree(); p++ {
				want := g.ID(int(g.Neighbors(nd.V())[p]))
				if nd.NeighborID(p) != want {
					panic("neighbor id mismatch")
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// The empty graph must run cleanly on both engines.
func TestEmptyGraph(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g, err := graph.FromEdges(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewNetwork(g, Config{Engine: eng}).Run(func(nd *Node) { nd.Sync() })
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != 0 || m.Messages != 0 {
			t.Errorf("empty graph metrics: %+v", m)
		}
	})
}

// Nodes that return without ever calling Sync must still have their final
// outbox delivered (the seed engine's finish semantics).
func TestFinalSendWithoutSync(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng Engine) {
		g := graph.Path(3)
		net := NewNetwork(g, Config{Engine: eng})
		var received atomic.Int64
		m, err := net.Run(func(nd *Node) {
			if nd.V() == 0 {
				nd.Send(0, []byte{42}) // send and return without Sync
				return
			}
			in := nd.Sync()
			for _, msg := range in {
				if len(msg.Payload) == 1 && msg.Payload[0] == 42 {
					received.Add(1)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if received.Load() != 1 {
			t.Errorf("final send delivered %d times, want 1", received.Load())
		}
		if m.Messages != 1 {
			t.Errorf("messages=%d, want 1", m.Messages)
		}
	})
}

// The CSR slot layout must give every directed edge a unique destination
// slot that round-trips back to the sender's port.
func TestTopologySlots(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(6), graph.Cycle(5), graph.Star(7),
		graph.GNPConnected(40, 0.1, 3), graph.Grid(4, 5),
		graph.BarabasiAlbert(300, 3, 5), graph.UnionForests(300, 3, 7),
		graph.NewBuilder(3).Graph(), graph.NewBuilder(0).Graph(),
	} {
		net := NewNetwork(g, Config{})
		topo := net.topology()
		if got, want := len(topo.destSlot), 2*g.M(); got != want {
			t.Fatalf("destSlot len=%d, want %d", got, want)
		}
		seen := make(map[int32]bool, len(topo.destSlot))
		for v := 0; v < g.N(); v++ {
			if got, want := topo.inOff[v+1]-topo.inOff[v], int32(g.Degree(v)); got != want {
				t.Fatalf("node %d: %d inbox slots, want degree %d", v, got, want)
			}
			for p, w := range g.Neighbors(v) {
				slot := topo.destSlot[topo.inOff[v]+int32(p)]
				if seen[slot] {
					t.Fatalf("slot %d assigned twice", slot)
				}
				seen[slot] = true
				u := int(w)
				q := int(slot - topo.inOff[u])
				if q < 0 || q >= g.Degree(u) {
					t.Fatalf("slot %d out of node %d's inbox range", slot, u)
				}
				if int(g.Neighbors(u)[q]) != v {
					t.Fatalf("slot for edge (%d,%d) maps to wrong port %d of %d", v, u, q, u)
				}
			}
		}
	}
}

func TestLedger(t *testing.T) {
	var l Ledger
	// phase-a carries charged rounds inside its measured metrics (a pipeline
	// stage that folded structural simulation into a run); the phase row must
	// keep them, not just the totals.
	l.RecordRun("phase-a", Metrics{Rounds: 3, ChargedRounds: 2, Messages: 10, Bits: 100})
	l.Charge("phase-b", 7)
	l.Charge("neg", -5) // clamped
	m := l.Metrics()
	if m.Rounds != 3 || m.ChargedRounds != 9 || m.TotalRounds() != 12 {
		t.Errorf("ledger totals wrong: %+v", m)
	}
	phases := l.Phases()
	if len(phases) != 3 {
		t.Fatalf("phases=%d, want 3", len(phases))
	}
	if phases[0].Charged != 2 || phases[0].Rounds != 3 {
		t.Errorf("phase-a row = %+v, want rounds=3 charged=2 (RecordRun must not drop ChargedRounds)", phases[0])
	}
	// The per-phase breakdown must add up to the totals it is printed with.
	sumRounds, sumCharged := 0, 0
	for _, p := range phases {
		sumRounds += p.Rounds
		sumCharged += p.Charged
	}
	if sumRounds != m.Rounds || sumCharged != m.ChargedRounds {
		t.Errorf("phase breakdown sums to (%d,%d), totals are (%d,%d)",
			sumRounds, sumCharged, m.Rounds, m.ChargedRounds)
	}
	s := l.String()
	if !strings.Contains(s, "total rounds=12 (measured 3 + charged 9)") {
		t.Errorf("String totals wrong:\n%s", s)
	}
	if !strings.Contains(s, "phase-a") || !strings.Contains(s, "rounds=3 charged=2 msgs=10") {
		t.Errorf("String phase row dropped charged rounds:\n%s", s)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	buf := AppendUvarint(nil, 300)
	buf = AppendVarint(buf, -77)
	x, off := Uvarint(buf, 0)
	if x != 300 || off <= 0 {
		t.Fatalf("Uvarint got (%d,%d)", x, off)
	}
	y, off2 := Varint(buf, off)
	if y != -77 || off2 != len(buf) {
		t.Fatalf("Varint got (%d,%d)", y, off2)
	}
	if _, bad := Uvarint([]byte{}, 0); bad != -1 {
		t.Error("decoding empty buffer should fail")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Rounds: 1, Messages: 2, Bits: 16, MaxMsgBits: 8, BandwidthBits: 64}
	b := Metrics{Rounds: 2, Messages: 2, Bits: 48, MaxMsgBits: 24}
	a.Add(b)
	if a.Rounds != 3 || a.Messages != 4 || a.Bits != 64 || a.MaxMsgBits != 24 {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.AvgMsgBits != 16 {
		t.Errorf("AvgMsgBits=%v, want 16", a.AvgMsgBits)
	}
}
