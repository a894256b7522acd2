package conformance

import (
	"errors"
	"sync/atomic"
	"testing"

	"congestds/internal/arbmds"
	"congestds/internal/chaos"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The fault-schedule corpus: every registered program, on a corpus of
// graphs, under a corpus of fault plans — crashes at interior opportunities,
// deterministic payload corruption, injected round faults and deterministic
// deadlines — must stay engine-indistinguishable: same outputs (or same
// sentinel class) and identical honest metrics across both engines and
// both program forms. Diff does the comparison; this file supplies the
// schedules.

// namedPlan is one fault schedule of the corpus.
type namedPlan struct {
	name string
	plan *chaos.Plan
}

// faultPlans builds the fault-schedule corpus for an n-node graph. Node and
// opportunity indices are chosen to hit the small corpus graphs (crashes
// clamp to n); schedules that reference rounds past a program's lifetime
// simply never fire, which is itself part of the corpus (a fault that does
// not land must not perturb anything).
func faultPlans(n int, short bool) []namedPlan {
	clamp := func(v int) int {
		if v >= n {
			return n - 1
		}
		return v
	}
	plans := []namedPlan{
		{"crash-init", chaos.NewPlan(1,
			chaos.Fault{Kind: chaos.CrashNode, Node: 0, Round: 0},
			chaos.Fault{Kind: chaos.CrashNode, Node: clamp(3), Round: 0},
		)},
		{"crash-interior", chaos.NewPlan(2,
			chaos.Fault{Kind: chaos.CrashNode, Node: clamp(1), Round: 1},
			chaos.Fault{Kind: chaos.CrashNode, Node: clamp(2), Round: 2},
		)},
		{"truncate", chaos.NewPlan(3,
			chaos.Fault{Kind: chaos.TruncatePayload, Node: 0, Port: -1, Round: 1, Arg: 0},
			chaos.Fault{Kind: chaos.TruncatePayload, Node: clamp(1), Port: 0, Round: 2, Arg: 1},
		)},
		{"flip", chaos.NewPlan(4,
			chaos.Fault{Kind: chaos.FlipPayload, Node: 0, Port: -1, Round: 1},
			chaos.Fault{Kind: chaos.FlipPayload, Node: clamp(5), Port: -1, Round: 0},
		)},
		{"deadline-at-2", chaos.NewPlan(5,
			chaos.Fault{Kind: chaos.DeadlineRound, Round: 2},
		)},
		{"fail-at-1", chaos.NewPlan(6,
			chaos.Fault{Kind: chaos.FailRound, Round: 1},
		)},
		{"crash-flood-source", chaos.NewPlan(7,
			chaos.Fault{Kind: chaos.CrashNode, Node: 0, Round: 0},
			chaos.Fault{Kind: chaos.DeadlineRound, Round: 4},
		)},
		{"random-8", chaos.RandomPlan(0xc0ffee, n, 6, 8)},
	}
	if !short {
		plans = append(plans,
			namedPlan{"extend-overflow", chaos.NewPlan(8,
				chaos.Fault{Kind: chaos.ExtendPayload, Node: 0, Port: -1, Round: 1, Arg: 64},
			)},
			namedPlan{"stall-and-crash", chaos.NewPlan(9,
				chaos.Fault{Kind: chaos.StallRound, Round: 1, Arg: 1},
				chaos.Fault{Kind: chaos.CrashNode, Node: clamp(4), Round: 2},
			)},
			namedPlan{"random-12", chaos.RandomPlan(0xfeedbeef, n, 6, 12)},
		)
	}
	return plans
}

// TestFaultScheduleConformance is the fault-schedule differential suite.
func TestFaultScheduleConformance(t *testing.T) {
	short := testing.Short()
	corpus := Corpus(true)
	if short {
		corpus = corpus[:10]
	}
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			for _, ng := range corpus {
				for _, np := range faultPlans(ng.G.N(), short) {
					cfg := congest.Config{Hooks: np.plan}
					if err := Diff(c, ng.G, cfg); err != nil {
						t.Errorf("graph %s, plan %s: %v", ng.Name, np.name, err)
					}
				}
			}
		})
	}
}

// crashCounter is a Hooks that injects nothing and records, per node, how
// many crash opportunities the engine offered and the sum of their indices.
type crashCounter struct {
	calls, opSum []atomic.Int64
}

func newCrashCounter(n int) *crashCounter {
	return &crashCounter{calls: make([]atomic.Int64, n), opSum: make([]atomic.Int64, n)}
}

func (h *crashCounter) Crash(v, op int) bool {
	h.calls[v].Add(1)
	h.opSum[v].Add(int64(op))
	return false
}
func (h *crashCounter) AlterPayload(v, port, op int, payload []byte) []byte { return payload }
func (h *crashCounter) RoundEnd(round int) error                            { return nil }
func (h *crashCounter) Stall(round int)                                     {}

// TestSleepingPeelSeesEveryCrash: the peel puts non-candidates to sleep,
// and so do mcds's orientation flood and connect hops, and a sleeping node
// must still be offered every crash opportunity. On the two peel cases,
// the stepped form on both engines must see exactly the per-node
// opportunities of the never-sleeping blocking form, and a plan that
// crashes every third node mid-peel, when most nodes sleep, must stay
// engine-indistinguishable; on mcds-full, so must a plan that crashes
// every third node inside the orientation window.
func TestSleepingPeelSeesEveryCrash(t *testing.T) {
	for _, c := range Cases() {
		if c.Name != "arbmds-peel" && c.Name != "mcds-full" {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			for _, ng := range Corpus(testing.Short()) {
				n := ng.G.N()
				ref := newCrashCounter(n)
				prog, _ := c.Build(ng.G)
				if _, err := congest.NewNetwork(ng.G, congest.Config{Engine: congest.EngineGoroutine, Hooks: ref}).Run(prog); err != nil {
					t.Fatalf("graph %s: blocking: %v", ng.Name, err)
				}
				for _, eng := range congest.Engines() {
					got := newCrashCounter(n)
					step, _ := c.BuildStep(ng.G)
					if _, err := congest.NewNetwork(ng.G, congest.Config{Engine: eng, Hooks: got}).RunStepped(step); err != nil {
						t.Fatalf("graph %s: stepped on %v: %v", ng.Name, eng, err)
					}
					for v := 0; v < n; v++ {
						if got.calls[v].Load() != ref.calls[v].Load() || got.opSum[v].Load() != ref.opSum[v].Load() {
							t.Fatalf("graph %s, stepped on %v: node %d offered %d crash opportunities (op sum %d), blocking %d (op sum %d)",
								ng.Name, eng, v, got.calls[v].Load(), got.opSum[v].Load(), ref.calls[v].Load(), ref.opSum[v].Load())
						}
					}
				}
				crashEveryThird := func(plan string, seed uint64, op func(v int) int) {
					var faults []chaos.Fault
					for v := 0; v < n; v += 3 {
						faults = append(faults, chaos.Fault{Kind: chaos.CrashNode, Node: v, Round: op(v)})
					}
					if err := Diff(c, ng.G, congest.Config{Hooks: chaos.NewPlan(seed, faults...)}); err != nil {
						t.Errorf("graph %s, %s plan: %v", ng.Name, plan, err)
					}
				}
				// Opportunity op is Step(op-1); opportunity 6 is phase 1's
				// nominate segment.
				crashEveryThird("peel", 10, func(int) int { return 6 })
				if c.Name == "mcds-full" {
					// Node v crashes at Step(peelRounds+v), spread over the
					// orientation window [peelRounds, peelRounds+n).
					peelRounds := 4 * len(arbmds.Thresholds(ng.G.MaxDegree(), 0.5))
					crashEveryThird("orient", 11, func(v int) int { return peelRounds + v + 1 })
				}
			}
		})
	}
}

// TestCrashAllNodes: crashing every node at opportunity 0 must end the run
// after zero rounds on every engine, with zero traffic counted.
func TestCrashAllNodes(t *testing.T) {
	g := graph.Grid(5, 6)
	faults := make([]chaos.Fault, g.N())
	for v := range faults {
		faults[v] = chaos.Fault{Kind: chaos.CrashNode, Node: v, Round: 0}
	}
	plan := chaos.NewPlan(0, faults...)
	c := Cases()[0]
	for _, eng := range congest.Engines() {
		check := func(form string, m congest.Metrics, err error) {
			if err != nil {
				t.Errorf("%v %s: err=%v, want nil (a crash is not a run failure)", eng, form, err)
			}
			if m.Rounds != 0 || m.Messages != 0 || m.Bits != 0 {
				t.Errorf("%v %s: metrics (%d rounds, %d msgs, %d bits) after total crash, want all zero",
					eng, form, m.Rounds, m.Messages, m.Bits)
			}
		}
		cfg := congest.Config{Engine: eng, Hooks: plan}
		prog, _ := c.Build(g)
		m, err := congest.NewNetwork(g, cfg).Run(prog)
		check("blocking", m, err)
		step, _ := c.BuildStep(g)
		m, err = congest.NewNetwork(g, cfg).RunStepped(step)
		check("stepped", m, err)
	}
}

// TestInjectedRoundFaultClasses pins the sentinel classes of injected round
// faults on every engine: FailRound → "injected", DeadlineRound →
// "deadline", and the metrics include the round the fault fired at.
func TestInjectedRoundFaultClasses(t *testing.T) {
	g := graph.Cycle(17)
	c := Cases()[1] // flood-distance: runs n rounds, comfortably past round 3
	for _, tc := range []struct {
		kind  chaos.Kind
		class string
	}{
		{chaos.FailRound, "injected"},
		{chaos.DeadlineRound, "deadline"},
	} {
		plan := chaos.NewPlan(0, chaos.Fault{Kind: tc.kind, Round: 3})
		for _, eng := range congest.Engines() {
			cfg := congest.Config{Engine: eng, Hooks: plan}
			prog, _ := c.Build(g)
			m, err := congest.NewNetwork(g, cfg).Run(prog)
			if got := congest.SentinelClass(err); got != tc.class {
				t.Errorf("%v under %v: class %q (err=%v), want %q", eng, tc.kind, got, err, tc.class)
			}
			if m.Rounds != 3 {
				t.Errorf("%v under %v: Rounds=%d, want 3 (the boundary the fault fired at)", eng, tc.kind, m.Rounds)
			}
			if tc.kind == chaos.FailRound && !errors.Is(err, congest.ErrInjected) {
				t.Errorf("%v: err=%v does not wrap ErrInjected", eng, err)
			}
			if tc.kind == chaos.DeadlineRound && !errors.Is(err, congest.ErrDeadline) {
				t.Errorf("%v: err=%v does not wrap ErrDeadline", eng, err)
			}
		}
	}
}
