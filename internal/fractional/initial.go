package fractional

import (
	"fmt"
	"sort"

	"congestds/internal/congest"
	"congestds/internal/fixpoint"
)

// Initial computes the paper's Part I (Lemma 2.1): the feasible,
// ε/(2Δ̃)-fractional dominating set that Part II rounds. eps must be in
// (0, 1]. Δ is the graph's maximum degree, assumed known to all nodes (the
// standard CONGEST assumption the paper's Δ-parameterized bounds rely on).
// It runs three steps:
//
//  1. a deterministic distributed covering program (below);
//  2. the value floor from the lemma's proof ("each node with value
//     < ε/(2Δ) sets its value to ε/(2Δ)");
//  3. one local-ratio trim pass (trim), after which every value the trim
//     left nonzero but below the floor is raised back to it, so the result
//     stays ε/(2Δ̃)-fractional.
//
// The covering phase is our substitute for the cited [KMW06] LP solver (see
// docs/ARCHITECTURE.md#substitutions, substitution 4): a threshold-batched
// parallel fractional greedy. Thresholds θ descend from Δ̃ by factors of
// (1+ε); while a node's residual degree d_v (uncovered constraints in N(v))
// is at least θ it raises x(v) by 1/(θ(1+ε)). Residual degrees are
// non-increasing, so after ⌊θ(1+ε)⌋+2 iterations no candidate remains at a
// threshold, which gives a deterministic per-threshold round budget without
// global termination detection.
//
// It runs as a genuine CONGEST message-passing program, two rounds per
// iteration, in which a node sends only what changed: in round A a one-byte
// flip, once, when its own constraint becomes covered; in round B its value
// increment, only when nonzero (see coverStep). So the covering sends at
// most 2m flips plus deg(v) messages per nonzero increment of v, each of
// O(log n) bits. Between the rounds in which it can act a node sleeps
// (congest.Node.SleepUntil), so the stepped engine runs it only when a
// threshold is due or mail arrives. The program is written in the
// stackless StepProgram form, so it executes on congest.EngineStepped with
// no per-node goroutine; the goroutine engine runs it through the blocking
// adapter with identical results. The trim runs on the host; its rounds are
// charged to the ledger as partI/trim.
func Initial(net *congest.Network, ledger *congest.Ledger, eps float64) (*CFDS, error) {
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("fractional: eps=%v out of (0,1]", eps)
	}
	g := net.Graph()
	n := g.N()
	if n == 0 {
		return NewFDS(ScaleFor(1), 0), nil
	}
	delta := g.MaxDegree()
	ctx := ScaleFor(n)
	phases := CoverPhases(ctx, eps, delta)

	x := make([]fixpoint.Value, n)
	metrics, err := net.RunStepped(newCoverStep(x, phases, ctx))
	if ledger != nil {
		ledger.RecordRun("partI/fractional-cover", metrics)
	}
	if err != nil {
		return nil, fmt.Errorf("fractional: covering phase: %w", err)
	}

	// Lemma 2.1 floor: value floor ε/(2Δ̃) keeps the approximation within
	// (1+ε) because OPT ≥ n/Δ̃, and makes the solution ε/(2Δ̃)-fractional.
	floor := FloorValue(ctx, eps, delta)
	f := NewFDS(ctx, n)
	for v := range x {
		f.X[v] = fixpoint.Max(x[v], floor)
	}
	trim(g, f, ledger)
	for v, xv := range f.X {
		if xv > 0 && xv < floor {
			f.X[v] = floor
		}
	}
	return f, nil
}

// CoverPhase is one threshold of the covering schedule: while a node's
// residual degree is ≥ Threshold it raises its value by Increment; Iters
// bounds the iterations until guaranteed quiescence, and first is the
// phase's first iteration in the whole schedule.
type CoverPhase struct {
	Threshold fixpoint.Value // θ_t, in units of constraints (scaled)
	Increment fixpoint.Value // 1/(θ_t(1+ε))
	Iters     int
	first     int
}

// CoverPhases returns the threshold schedule and per-threshold iteration
// budgets. Every node computes the same schedule, because it depends only on
// Δ̃ = maxDegree+1 and ε. Package setcover walks the same schedule with
// Δ̃ = the largest set size.
func CoverPhases(ctx fixpoint.Ctx, eps float64, maxDegree int) []CoverPhase {
	onePlusEps := ctx.Add(ctx.One(), ctx.FromFloat(eps))
	var phases []CoverPhase
	first := 0
	addPhase := func(theta fixpoint.Value) {
		den := ctx.MulUp(theta, onePlusEps)
		inc := ctx.DivDown(ctx.One(), den)
		if inc == 0 {
			inc = ctx.Eps()
		}
		// iterations until guaranteed quiescence: ⌊θ(1+ε)⌋ + 2
		it := int(uint64(den)>>ctx.Scale()) + 2
		phases = append(phases, CoverPhase{Threshold: theta, Increment: inc, Iters: it, first: first})
		first += it
	}
	theta := fixpoint.Value(maxDegree+1) * ctx.One() // Δ̃ in fixed point
	for theta > ctx.One() {
		addPhase(theta)
		theta = ctx.DivDown(theta, onePlusEps)
	}
	// Final phase at θ=1 guarantees every remaining uncovered constraint is
	// finished (an uncovered node always has residual degree ≥ 1 in its own
	// inclusive neighbourhood).
	addPhase(ctx.One())
	return phases
}

// coverStep is the threshold-batched parallel fractional greedy as a
// stackless state machine. Each schedule iteration spans two synchronous
// rounds, and a node sends only what changed since the previous iteration:
//
//   - Round A: a node broadcasts a one-byte flip at most once, at the start
//     of the first iteration after its own constraint becomes covered
//     (covSelf reaches 1). A receiver starts nbrUncovered at its degree and
//     counts it down by one per flip, so its residual degree costs
//     O(messages received), not O(degree).
//   - Round B: a node that raised its value broadcasts the increment; a
//     neighbour that stays silent raised by 0.
//
// Iteration k runs in rounds 2k (A) and 2k+1 (B), so the phase and the
// A/B half follow from the round number and the shared schedule, and a
// node runs only in the rounds in which it can act, sleeping
// (congest.Node.SleepUntil) through the rest:
//
//   - a node that raised in round A stays awake for round B, to fold its
//     own increment into its coverage;
//   - otherwise it sleeps until round A of the first iteration whose
//     threshold θ is at most its residual degree, or until the last round
//     if its value is already 1 or no threshold qualifies;
//   - flips and increments are mail, so they wake it: they are the only
//     events that change its residual degree or its coverage.
//
// Residual degrees never grow and thresholds never rise, so a sleeping
// node would have done nothing in the rounds it skips, and the outputs,
// rounds and traffic equal those of a node stepped every round.
//
// In a synchronous round silence carries the rest. So under crash-stop
// fault hooks a crashed neighbour stays uncovered in its neighbours' counts
// instead of turning covered. Part I never runs under fault hooks: mds,
// family and serve set no Hooks.
//
// One coverStep runs every node: x doubles as each node's own value, and
// the rest of a node's state is its coverNode.
type coverStep struct {
	x         []fixpoint.Value // output, and each node's value as it rises
	phases    []CoverPhase
	ctx       fixpoint.Ctx
	lastRound int // the round of the final Step, in which every node outputs
	nodes     []coverNode
}

// coverNode is one node's covering state besides its value.
type coverNode struct {
	covSelf      fixpoint.Value
	delta        fixpoint.Value // own increment not yet folded into covSelf
	nbrUncovered int32          // neighbours whose flip has not arrived
	myUncovered  bool           // own constraint uncovered as of the last round A
}

// newCoverStep returns the covering program over the schedule phases,
// writing every node's value to x.
func newCoverStep(x []fixpoint.Value, phases []CoverPhase, ctx fixpoint.Ctx) *coverStep {
	last := phases[len(phases)-1]
	return &coverStep{
		x:         x,
		phases:    phases,
		ctx:       ctx,
		lastRound: 2*(last.first+last.Iters) - 1,
		nodes:     make([]coverNode, len(x)),
	}
}

// residual is the node's residual degree: the uncovered constraints in its
// inclusive neighbourhood, as of the flips received so far.
func (c *coverNode) residual() int {
	if c.myUncovered {
		return int(c.nbrUncovered) + 1
	}
	return int(c.nbrUncovered)
}

// sleepFrom sleeps until round A of the first iteration ≥ k at which the
// node is a candidate, or until the last round if there is none: its value
// is 1, or no remaining threshold is at most its residual degree. The
// thresholds never rise, so the phases that qualify form a suffix.
func (s *coverStep) sleepFrom(nd *congest.Node, c *coverNode, k int) {
	d := fixpoint.Value(uint64(c.residual())) * s.ctx.One()
	i := sort.Search(len(s.phases), func(i int) bool { return s.phases[i].Threshold <= d })
	if s.x[nd.V()] < s.ctx.One() && i < len(s.phases) {
		if next := max(k, s.phases[i].first); 2*next < s.lastRound {
			nd.SleepUntil(2 * next)
			return
		}
	}
	nd.SleepUntil(s.lastRound)
}

func (s *coverStep) Init(nd *congest.Node) bool {
	c := &s.nodes[nd.V()]
	c.nbrUncovered = int32(nd.Degree())
	c.myUncovered = true
	s.sleepFrom(nd, c, 0)
	return false
}

func (s *coverStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	ctx := s.ctx
	c, xv := &s.nodes[nd.V()], &s.x[nd.V()]
	k := round / 2
	if round%2 == 0 {
		// Round A receive: residual degree over the inclusive neighbourhood.
		for _, msg := range in {
			if len(msg.Payload) != 1 || msg.Payload[0] != 0 {
				panic("fractional: bad flip message")
			}
		}
		c.nbrUncovered -= int32(len(in))
		// Round B send: candidates raise and broadcast the actual delta.
		ph := s.phases[sort.Search(len(s.phases), func(i int) bool {
			return s.phases[i].first+s.phases[i].Iters > k
		})]
		if fixpoint.Value(uint64(c.residual()))*ctx.One() >= ph.Threshold && *xv < ctx.One() {
			nx := ctx.Clamp1(ctx.Add(*xv, ph.Increment))
			c.delta = nx - *xv
			*xv = nx
			nd.Broadcast(congest.AppendUvarint(nd.PayloadBuf(10), uint64(c.delta)))
			return false // awake in round B to fold the delta
		}
		s.sleepFrom(nd, c, k+1)
		return false
	}
	// Round B receive: fold every increment into our own coverage.
	c.covSelf = ctx.Add(c.covSelf, c.delta)
	c.delta = 0
	for _, msg := range in {
		d, off := congest.Uvarint(msg.Payload, 0)
		if off < 0 {
			panic("fractional: bad increment message")
		}
		c.covSelf = ctx.Add(c.covSelf, fixpoint.Value(d))
	}
	if round == s.lastRound {
		return true
	}
	// Round A send: the flip, once the own constraint is covered.
	if c.myUncovered && c.covSelf >= ctx.One() {
		c.myUncovered = false
		nd.Broadcast(append(nd.PayloadBuf(1), 0))
	}
	s.sleepFrom(nd, c, k+1)
	return false
}

// FloorValue returns the Lemma 2.1 fractionality floor ε/(2Δ̃) in ctx's
// scale (exported for tests and the experiment harness).
func FloorValue(ctx fixpoint.Ctx, eps float64, maxDegree int) fixpoint.Value {
	fl := ctx.FromRatio(1, 2*uint64(maxDegree+1), false)
	fl = ctx.MulUp(fl, ctx.FromFloat(eps))
	if fl == 0 {
		fl = ctx.Eps()
	}
	return fl
}
