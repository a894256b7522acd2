package conformance

import (
	"errors"
	"sync/atomic"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// TestCorpusSize pins the acceptance floor: the differential corpus holds
// at least 20 graphs even in short mode.
func TestCorpusSize(t *testing.T) {
	if n := len(Corpus(true)); n < 20 {
		t.Fatalf("short corpus has %d graphs, want >= 20", n)
	}
	if n := len(Corpus(false)); n < 20 {
		t.Fatalf("full corpus has %d graphs, want >= 20", n)
	}
}

// TestSteppedCorpusComplete pins the stepped program corpus: every
// registered case must carry a StepProgram port, so the stepped engine is
// exercised by the full differential suite, not a subset.
func TestSteppedCorpusComplete(t *testing.T) {
	for _, c := range Cases() {
		if c.BuildStep == nil {
			t.Errorf("case %s has no stepped variant", c.Name)
		}
	}
}

// TestConformance is the differential suite: every registered program on
// every corpus graph must be indistinguishable across engines — identical
// output bytes, round counts and bandwidth metrics. Cases with a stepped
// variant additionally run it via RunStepped on every engine, inside the
// same Diff.
func TestConformance(t *testing.T) {
	corpus := Corpus(testing.Short())
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			for _, ng := range corpus {
				if err := Diff(c, ng.G, congest.Config{}); err != nil {
					t.Errorf("graph %s: %v", ng.Name, err)
				}
			}
		})
	}
}

// TestConformanceTightBudget repeats the suite with a bandwidth factor of 8
// (half the default), shrinking the budget the programs must fit in.
func TestConformanceTightBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: default-budget pass covers the engines")
	}
	corpus := Corpus(true)
	for _, c := range Cases() {
		if c.Name == "budget-edge" {
			continue // sized for the default factor by construction
		}
		t.Run(c.Name, func(t *testing.T) {
			for _, ng := range corpus {
				if err := Diff(c, ng.G, congest.Config{BandwidthFactor: 8}); err != nil {
					t.Errorf("graph %s: %v", ng.Name, err)
				}
			}
		})
	}
}

// TestErrorEquivalence: simulator violations must surface as the same
// sentinel error on every engine.
func TestErrorEquivalence(t *testing.T) {
	g := graph.GNPConnected(24, 0.2, 13)
	t.Run("bandwidth", func(t *testing.T) {
		for _, eng := range congest.Engines() {
			net := congest.NewNetwork(g, congest.Config{BandwidthFactor: 1, Engine: eng})
			_, err := net.Run(func(nd *congest.Node) {
				nd.Broadcast(make([]byte, 64))
				nd.Sync()
			})
			if !errors.Is(err, congest.ErrBandwidth) {
				t.Errorf("%v: err=%v, want ErrBandwidth", eng, err)
			}
		}
	})
	t.Run("max-rounds", func(t *testing.T) {
		for _, eng := range congest.Engines() {
			net := congest.NewNetwork(g, congest.Config{MaxRounds: 8, Engine: eng})
			_, err := net.Run(func(nd *congest.Node) {
				for {
					nd.Sync()
				}
			})
			if !errors.Is(err, congest.ErrMaxRounds) {
				t.Errorf("%v: err=%v, want ErrMaxRounds", eng, err)
			}
		}
	})
	t.Run("program-panic", func(t *testing.T) {
		for _, eng := range congest.Engines() {
			net := congest.NewNetwork(g, congest.Config{Engine: eng})
			_, err := net.Run(func(nd *congest.Node) {
				if nd.V() == 7 {
					panic("deliberate")
				}
				for r := 0; r < 4; r++ {
					nd.Broadcast([]byte{1})
					nd.Sync()
				}
			})
			if err == nil {
				t.Errorf("%v: program panic did not surface", eng)
			}
		}
	})
}

// TestFailurePathEquivalence pins the failure contract across engines: a
// run that exceeds MaxRounds must leave identical host-visible side
// effects (rounds completed per node) and identical progress metrics —
// nodes unwind at the first wake after the failure on every engine, and
// the metrics of the aborted run must still say how far it got.
func TestFailurePathEquivalence(t *testing.T) {
	g := graph.Grid(4, 4)
	type obs struct {
		completed []int64
		rounds    int
		messages  int64
		bits      int64
	}
	run := func(eng congest.Engine) obs {
		completed := make([]int64, g.N())
		m, err := congest.NewNetwork(g, congest.Config{MaxRounds: 5, Engine: eng}).Run(func(nd *congest.Node) {
			for {
				nd.Broadcast([]byte{1})
				nd.Sync()
				completed[nd.V()]++
			}
		})
		if !errors.Is(err, congest.ErrMaxRounds) {
			t.Fatalf("%v: err=%v, want ErrMaxRounds", eng, err)
		}
		return obs{completed: completed, rounds: m.Rounds, messages: m.Messages, bits: m.Bits}
	}
	ref := run(congest.EngineGoroutine)
	if ref.rounds == 0 {
		t.Error("failed run reported Rounds=0; the metrics must say how far it got")
	}
	for _, eng := range congest.Engines() {
		got := run(eng)
		if got.rounds != ref.rounds || got.messages != ref.messages || got.bits != ref.bits {
			t.Errorf("%v: failure-path metrics diverge: (%d,%d,%d) vs (%d,%d,%d)",
				eng, got.rounds, got.messages, got.bits, ref.rounds, ref.messages, ref.bits)
		}
		for v := range got.completed {
			if got.completed[v] != ref.completed[v] {
				t.Errorf("%v: node %d completed %d rounds, goroutine reference %d",
					eng, v, got.completed[v], ref.completed[v])
			}
		}
	}
}

// runawayStep broadcasts forever; under a clamped MaxRounds every engine
// must fail at the same delivery with the same traffic counted.
type runawayStep struct{}

func (s *runawayStep) Init(nd *congest.Node) bool { nd.Broadcast([]byte{1}); return false }
func (s *runawayStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	nd.Broadcast([]byte{1})
	return false
}

// lateOversend behaves for two rounds, then node 0 blows the CONGEST
// budget in round segment 2 — so the failure lands mid-run, after real
// traffic has been counted.
type lateOversend struct{}

func (s *lateOversend) Init(nd *congest.Node) bool { nd.Broadcast([]byte{1}); return false }
func (s *lateOversend) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	seg := round + 1 // Step(round) queues round segment round+1's sends
	if seg == 2 && nd.V() == 0 {
		nd.Broadcast(make([]byte, 1024))
	}
	nd.Broadcast([]byte{byte(seg%2 + 1)})
	return false
}

// TestFailureMetricsConformance drives runs that end in ErrMaxRounds and
// ErrBandwidth through the differential harness: every engine × program
// form must report identical Rounds/Messages/Bits for the aborted run, not
// just an equivalent sentinel error. (Diff's failure branch does the
// comparison; this test supplies the failing cases, which the registered
// corpus — all successful programs — never exercises.)
func TestFailureMetricsConformance(t *testing.T) {
	corpus := Corpus(true)[:8]
	maxRounds := Case{
		Name: "runaway-max-rounds",
		Build: func(g *graph.Graph) (congest.Program, func() []byte) {
			prog := func(nd *congest.Node) {
				for {
					nd.Broadcast([]byte{1})
					nd.Sync()
				}
			}
			return prog, func() []byte { return nil }
		},
		BuildStep: func(g *graph.Graph) (congest.StepFactory, func() []byte) {
			return func(nd *congest.Node) congest.StepProgram { return &runawayStep{} },
				func() []byte { return nil }
		},
	}
	oversend := Case{
		Name: "late-oversend-bandwidth",
		Build: func(g *graph.Graph) (congest.Program, func() []byte) {
			prog := func(nd *congest.Node) {
				for r := 0; ; r++ {
					if r == 2 && nd.V() == 0 {
						nd.Broadcast(make([]byte, 1024))
					}
					nd.Broadcast([]byte{byte(r%2 + 1)})
					nd.Sync()
				}
			}
			return prog, func() []byte { return nil }
		},
		BuildStep: func(g *graph.Graph) (congest.StepFactory, func() []byte) {
			return func(nd *congest.Node) congest.StepProgram { return &lateOversend{} },
				func() []byte { return nil }
		},
	}
	t.Run("max-rounds", func(t *testing.T) {
		for _, ng := range corpus {
			if err := Diff(maxRounds, ng.G, congest.Config{MaxRounds: 6}); err != nil {
				t.Errorf("graph %s: %v", ng.Name, err)
			}
		}
	})
	t.Run("bandwidth", func(t *testing.T) {
		for _, ng := range corpus {
			if ng.G.Degree(0) == 0 {
				continue // node 0 cannot oversend without an edge
			}
			if err := Diff(oversend, ng.G, congest.Config{MaxRounds: 6}); err != nil {
				t.Errorf("graph %s: %v", ng.Name, err)
			}
		}
	})
}

// TestDiffDetectsDivergence sanity-checks the harness itself: runs whose
// outputs differ must be flagged. The evil case returns a different output
// on every Build and BuildStep (as an engine-dependent program would).
func TestDiffDetectsDivergence(t *testing.T) {
	builds := int64(0)
	stamp := func() func() []byte {
		builds++
		s := builds
		return func() []byte { return appendInt(nil, s) }
	}
	evil := Case{
		Name: "engine-sniffer",
		Build: func(g *graph.Graph) (congest.Program, func() []byte) {
			prog, _ := buildIDExchange(g)
			return prog, stamp()
		},
		BuildStep: func(g *graph.Graph) (congest.StepFactory, func() []byte) {
			factory, _ := buildIDExchangeStep(g)
			return factory, stamp()
		},
	}
	g := graph.Cycle(6)
	if err := Diff(evil, g, congest.Config{}); err == nil {
		t.Fatal("harness failed to flag diverging outputs")
	}
}

// TestEmptyPayloadNilCanonical pins the canonicalization that keeps the
// empty-message representation engine-independent: zero-length sends are
// delivered as nil on every engine.
func TestEmptyPayloadNilCanonical(t *testing.T) {
	g := graph.Cycle(6)
	for _, eng := range congest.Engines() {
		var nonNil atomic.Int64
		_, err := congest.NewNetwork(g, congest.Config{Engine: eng}).Run(func(nd *congest.Node) {
			nd.Broadcast([]byte{})
			in := nd.Sync()
			for _, msg := range in {
				if msg.Payload != nil {
					nonNil.Add(1)
				}
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if n := nonNil.Load(); n != 0 {
			t.Errorf("%v: %d empty payloads delivered non-nil", eng, n)
		}
	}
}
