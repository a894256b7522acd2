package fractional

import (
	"fmt"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/fixpoint"
	"congestds/internal/graph"
)

// broadcastEveryRound is the reference twin of coverStep: the same covering
// schedule, but every node re-broadcasts its uncovered bit in every round A
// and its increment, zero or not, in every round B. nonzero[v] counts the
// round-B messages node v sent with a nonzero increment.
type broadcastEveryRound struct {
	x       []fixpoint.Value
	nonzero []int64
	phases  []CoverPhase
	ctx     fixpoint.Ctx
	nodes   []everyRoundNode
}

// everyRoundNode is one node's state in broadcastEveryRound.
type everyRoundNode struct {
	xv           fixpoint.Value
	covSelf      fixpoint.Value
	uncoveredNbr []bool
	myUncovered  bool
	delta        fixpoint.Value
	pi, it       int
	awaitingB    bool
}

func (s *broadcastEveryRound) sendA(nd *congest.Node, e *everyRoundNode) {
	e.myUncovered = e.covSelf < s.ctx.One()
	bit := byte(0)
	if e.myUncovered {
		bit = 1
	}
	nd.Broadcast(append(nd.PayloadBuf(1), bit))
}

func (s *broadcastEveryRound) Init(nd *congest.Node) bool {
	e := &s.nodes[nd.V()]
	e.uncoveredNbr = make([]bool, nd.Degree())
	s.sendA(nd, e)
	return false
}

func (s *broadcastEveryRound) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	ctx := s.ctx
	e := &s.nodes[nd.V()]
	if !e.awaitingB {
		for i := range e.uncoveredNbr {
			e.uncoveredNbr[i] = false
		}
		for _, msg := range in {
			e.uncoveredNbr[msg.Port] = msg.Payload[0] == 1
		}
		d := 0
		if e.myUncovered {
			d++
		}
		for _, u := range e.uncoveredNbr {
			if u {
				d++
			}
		}
		ph := s.phases[e.pi]
		e.delta = 0
		if fixpoint.Value(uint64(d))*ctx.One() >= ph.Threshold && e.xv < ctx.One() {
			nx := ctx.Clamp1(ctx.Add(e.xv, ph.Increment))
			e.delta = nx - e.xv
			e.xv = nx
		}
		if e.delta != 0 {
			s.nonzero[nd.V()] += int64(nd.Degree())
		}
		nd.Broadcast(congest.AppendUvarint(nd.PayloadBuf(10), uint64(e.delta)))
		e.awaitingB = true
		return false
	}
	e.covSelf = ctx.Add(e.covSelf, e.delta)
	for _, msg := range in {
		d, off := congest.Uvarint(msg.Payload, 0)
		if off < 0 {
			panic("fractional: bad increment message")
		}
		e.covSelf = ctx.Add(e.covSelf, fixpoint.Value(d))
	}
	e.awaitingB = false
	if e.it++; e.it >= s.phases[e.pi].Iters {
		e.it = 0
		e.pi++
	}
	if e.pi >= len(s.phases) {
		s.x[nd.V()] = e.xv
		return true
	}
	s.sendA(nd, e)
	return false
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// coverCorpus returns the graphs the covering program is pinned on; short
// keeps only the small ones.
func coverCorpus(t *testing.T, short bool) []namedGraph {
	t.Helper()
	isolated, err := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	gs := []namedGraph{
		{"star12", graph.Star(12)},
		{"single", graph.Path(1)},
		{"isolated", isolated},
		{"cycle9", graph.Cycle(9)},
		{"caterpillar", graph.Caterpillar(3, 2)},
		{"gnp24", graph.GNPConnected(24, 0.2, 5)},
	}
	if short {
		return gs
	}
	for _, fam := range []string{"gnp", "ba", "grid", "disk", "caterpillar", "cycle"} {
		g, err := graph.Named(fam, 200, 3)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, namedGraph{fam + "200", g})
	}
	return gs
}

// coverRaw runs the covering program alone on eng and returns its values,
// before the floor and the trim.
func coverRaw(t *testing.T, g *graph.Graph, eng congest.Engine, eps float64) []fixpoint.Value {
	t.Helper()
	ctx := ScaleFor(g.N())
	phases := CoverPhases(ctx, eps, g.MaxDegree())
	x := make([]fixpoint.Value, g.N())
	_, err := congest.NewNetwork(g, congest.Config{Engine: eng}).RunStepped(newCoverStep(x, phases, ctx))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// floored raises covering values x to the Lemma 2.1 floor: trim's input
// inside Initial.
func floored(g *graph.Graph, x []fixpoint.Value, eps float64) *CFDS {
	ctx := ScaleFor(g.N())
	floor := FloorValue(ctx, eps, g.MaxDegree())
	f := NewFDS(ctx, len(x))
	for v := range x {
		f.X[v] = fixpoint.Max(x[v], floor)
	}
	return f
}

// TestInitialMatchesBroadcastEveryRound pins the send-only-what-changed
// covering program against its broadcast-every-round twin: the same raw x
// vector, rounds and largest message, on both engines, while the new
// program sends at most one flip per edge direction (2m) plus the twin's
// nonzero increments. It also pins Initial's output as that covering
// output floored, trimmed once and floored again.
func TestInitialMatchesBroadcastEveryRound(t *testing.T) {
	for _, tc := range coverCorpus(t, testing.Short()) {
		g := tc.g
		for _, eps := range []float64{0.5 / 16, 0.3, 1} {
			for _, eng := range congest.Engines() {
				t.Run(fmt.Sprintf("%s/eps=%g/%v", tc.name, eps, eng), func(t *testing.T) {
					n := g.N()
					ctx := ScaleFor(n)
					phases := CoverPhases(ctx, eps, g.MaxDegree())

					twinX := make([]fixpoint.Value, n)
					nonzero := make([]int64, n)
					twin, err := congest.NewNetwork(g, congest.Config{Engine: eng}).RunStepped(&broadcastEveryRound{
						x: twinX, nonzero: nonzero, phases: phases, ctx: ctx, nodes: make([]everyRoundNode, n),
					})
					if err != nil {
						t.Fatal(err)
					}
					raw := coverRaw(t, g, eng, eps)
					for v := range twinX {
						if raw[v] != twinX[v] {
							t.Fatalf("x[%d]=%s, twin %s", v, ctx.String(raw[v]), ctx.String(twinX[v]))
						}
					}

					var ledger congest.Ledger
					f, err := Initial(congest.NewNetwork(g, congest.Config{Engine: eng}), &ledger, eps)
					if err != nil {
						t.Fatal(err)
					}
					want := floored(g, raw, eps)
					trim(g, want, nil)
					floor := FloorValue(ctx, eps, g.MaxDegree())
					for v, xv := range want.X {
						if xv > 0 && xv < floor {
							want.X[v] = floor
						}
					}
					for v := range want.X {
						if f.X[v] != want.X[v] {
							t.Fatalf("Initial x[%d]=%s, floor→trim→floor %s",
								v, ctx.String(f.X[v]), ctx.String(want.X[v]))
						}
					}
					got := ledger.Metrics()
					if got.Rounds != twin.Rounds || got.MaxMsgBits != twin.MaxMsgBits {
						t.Errorf("rounds/maxMsgBits %d/%d, twin %d/%d",
							got.Rounds, got.MaxMsgBits, twin.Rounds, twin.MaxMsgBits)
					}
					var inc int64
					for _, c := range nonzero {
						inc += c
					}
					if limit := 2*int64(g.M()) + inc; got.Messages > limit {
						t.Errorf("messages %d > 2m + nonzero increments = %d", got.Messages, limit)
					}
				})
			}
		}
	}
}

// stepCounter sums RoundStats.Awake: the Init/Step calls of the delivered
// rounds.
type stepCounter struct{ steps int64 }

func (c *stepCounter) RoundStart(int)                {}
func (c *stepCounter) RoundEnd(s congest.RoundStats) { c.steps += int64(s.Awake) }
func (c *stepCounter) Event(congest.Event)           {}

// BenchmarkInitial runs Part I on the paper pipeline's ε₁ = 0.5/16 and
// reports its CONGEST traffic and node-steps per run.
func BenchmarkInitial(b *testing.B) {
	for _, fam := range []string{"gnp", "ba"} {
		g, err := graph.Named(fam, 2000, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fam, func(b *testing.B) {
			var m congest.Metrics
			var steps stepCounter
			for b.Loop() {
				var ledger congest.Ledger
				steps = stepCounter{}
				net := congest.NewNetwork(g, congest.Config{Observer: &steps})
				if _, err := Initial(net, &ledger, 0.5/16); err != nil {
					b.Fatal(err)
				}
				m = ledger.Metrics()
			}
			b.ReportMetric(float64(m.Messages), "msgs/op")
			b.ReportMetric(float64(m.Bits), "bits/op")
			b.ReportMetric(float64(steps.steps), "node-steps/op")
		})
	}
}
