package conformance

import (
	"fmt"
	"math/bits"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// Stepped variants of the registered programs: each is an independent port
// of its blocking counterpart in programs.go to the stackless StepProgram
// form (one program value per run, each stack variable a per-node slab
// indexed by Node.V, Init = sends before the first Sync, Step r = receives
// of round r plus the sends of round r+1). A port writes its outputs where
// the blocking program does, so a node that crashes before its end leaves
// the same output on both forms. The harness requires
// every variant to be byte- and metric-identical to the blocking reference
// on every engine, which pins both the ports and the stepped engine itself.
//
// The variants build payloads through Node.PayloadBuf where the blocking
// programs allocate per send, so the corpus also exercises the stepped
// engine's arena on every graph.

// idExchangeStep: one round; broadcast the ID, record (port, id) pairs.
type idExchangeStep struct{ got [][]int64 }

func (s *idExchangeStep) Init(nd *congest.Node) bool {
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(10), nd.ID()))
	return false
}

func (s *idExchangeStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	res := make([]int64, 0, 2*len(in))
	for _, msg := range in {
		id, _ := congest.Varint(msg.Payload, 0)
		res = append(res, int64(msg.Port), id)
	}
	s.got[nd.V()] = res
	return true
}

func buildIDExchangeStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	got := make([][]int64, g.N())
	return &idExchangeStep{got: got}, func() []byte {
		var buf []byte
		for _, res := range got {
			buf = appendInt(buf, int64(len(res)))
			for _, x := range res {
				buf = appendInt(buf, x)
			}
		}
		return buf
	}
}

// floodDistanceStep: the node with ID 1 floods; others record hop distance.
type floodDistanceStep struct {
	dist   []int64
	rounds int
	my     []int64
}

func newFloodDistanceStep(n int) floodDistanceStep {
	return floodDistanceStep{dist: make([]int64, n), rounds: n, my: make([]int64, n)}
}

func (s *floodDistanceStep) Init(nd *congest.Node) bool {
	my := &s.my[nd.V()]
	*my = -1
	if nd.ID() == 1 {
		*my = 0
	}
	if s.rounds <= 0 {
		s.dist[nd.V()] = *my
		return true
	}
	if *my == 0 {
		nd.Broadcast([]byte{1})
	}
	return false
}

func (s *floodDistanceStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	my := &s.my[nd.V()]
	if *my < 0 && len(in) > 0 {
		*my = int64(round + 1)
	}
	if round+1 >= s.rounds {
		s.dist[nd.V()] = *my
		return true
	}
	if *my == int64(round+1) {
		nd.Broadcast([]byte{1})
	}
	return false
}

func buildFloodDistanceStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	s := newFloodDistanceStep(g.N())
	dist := s.dist
	return &s, func() []byte {
		var buf []byte
		for _, d := range dist {
			buf = appendInt(buf, d)
		}
		return buf
	}
}

// mixerStep: five rounds of order-sensitive accumulation.
type mixerStep struct {
	out []int64
	acc []int64
}

func (s *mixerStep) Init(nd *congest.Node) bool {
	acc := &s.acc[nd.V()]
	*acc = nd.ID()
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), *acc&mask))
	return false
}

func (s *mixerStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	acc := &s.acc[nd.V()]
	for i, msg := range in {
		x := mixerValue(msg.Payload)
		*acc = *acc*31 + x*int64(i+1) + int64(msg.Port)
	}
	if round+1 >= 5 {
		s.out[nd.V()] = *acc
		return true
	}
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), *acc&mask))
	return false
}

func buildMixerStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	out := make([]int64, g.N())
	return &mixerStep{out: out, acc: make([]int64, g.N())}, outputInts(out)
}

// earlyStopStep: node v runs v%4+1 rounds then stops.
type earlyStopStep struct{ seen [][]int64 }

func (s *earlyStopStep) Init(nd *congest.Node) bool {
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), 0))
	return false
}

func (s *earlyStopStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	sum := int64(0)
	for _, msg := range in {
		x, _ := congest.Varint(msg.Payload, 0)
		sum += x + 1
	}
	v := nd.V()
	s.seen[v] = append(s.seen[v], int64(len(in)), sum)
	if round+1 >= v%4+1 {
		return true
	}
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), int64(round+1)))
	return false
}

func buildEarlyStopStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	seen := make([][]int64, g.N())
	return &earlyStopStep{seen: seen}, func() []byte {
		var buf []byte
		for _, s := range seen {
			buf = appendInt(buf, int64(len(s)))
			for _, x := range s {
				buf = appendInt(buf, x)
			}
		}
		return buf
	}
}

// finalSendStep: even IDs send in Init and are immediately done (the
// stepped analogue of sending and returning without Sync); odd IDs listen
// for one round.
type finalSendStep struct{ heard []int64 }

func (s *finalSendStep) Init(nd *congest.Node) bool {
	if nd.ID()%2 == 0 {
		for p := 0; p < nd.Degree(); p++ {
			nd.Send(p, congest.AppendVarint(nd.PayloadBuf(4), nd.ID()&mask))
		}
		return true
	}
	return false
}

func (s *finalSendStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	sum := int64(0)
	for _, msg := range in {
		x, _ := congest.Varint(msg.Payload, 0)
		sum += x + int64(msg.Port) + 1
	}
	s.heard[nd.V()] = sum
	return true
}

func buildFinalSendStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	heard := make([]int64, g.N())
	return &finalSendStep{heard: heard}, outputInts(heard)
}

// emptyPayloadStep: zero-length messages every other round.
type emptyPayloadStep struct{ count []int64 }

func (s *emptyPayloadStep) Init(nd *congest.Node) bool {
	nd.Broadcast([]byte{})
	return false
}

func (s *emptyPayloadStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	for _, msg := range in {
		s.count[nd.V()] += 1 + int64(len(msg.Payload))*1000
	}
	if round+1 >= 4 {
		return true
	}
	if (round+1)%2 == 0 {
		nd.Broadcast([]byte{})
	}
	return false
}

func buildEmptyPayloadStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	count := make([]int64, g.N())
	return &emptyPayloadStep{count: count}, outputInts(count)
}

// portPingpongStep: a single rotating port per round, with the send
// replaced once (Send-replaces-same-port semantics).
type portPingpongStep struct {
	out []int64
	acc []int64
}

func (s *portPingpongStep) sendRound(nd *congest.Node, r int) {
	if d := nd.Degree(); d > 0 {
		p := r % d
		nd.Send(p, congest.AppendVarint(nd.PayloadBuf(4), int64(r)))
		nd.Send(p, congest.AppendVarint(nd.PayloadBuf(4), int64(r)+100)) // replaces
	}
}

func (s *portPingpongStep) Init(nd *congest.Node) bool {
	s.sendRound(nd, 0)
	return false
}

func (s *portPingpongStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	acc := &s.acc[nd.V()]
	for _, msg := range in {
		x, _ := congest.Varint(msg.Payload, 0)
		*acc = *acc*17 + x + int64(msg.Port)
	}
	if round+1 >= 6 {
		s.out[nd.V()] = *acc
		return true
	}
	s.sendRound(nd, round+1)
	return false
}

func buildPortPingpongStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	out := make([]int64, g.N())
	return &portPingpongStep{out: out, acc: make([]int64, g.N())}, outputInts(out)
}

// portResendStep: each round re-sends on a port that is not the last one
// queued (Send(3), Send(1), Send(3); or Send, Broadcast, Send(0)), so the
// replacement must find a message behind a later port.
type portResendStep struct {
	out []int64
	acc []int64
}

func (s *portResendStep) sendRound(nd *congest.Node, r int) {
	d := nd.Degree()
	if d == 0 {
		return
	}
	a, b := resendPorts(r, d)
	val := func(k int) []byte { return congest.AppendVarint(nd.PayloadBuf(2), int64(4*r+k+1)) }
	if r%2 == 0 {
		nd.Send(a, val(0))
		nd.Send(b, val(1))
		nd.Send(a, val(2)) // replaces val(0)
		return
	}
	nd.Send(a, val(0))
	nd.Broadcast(val(1)) // replaces val(0)
	nd.Send(b, val(2))   // replaces the broadcast on b
}

func (s *portResendStep) Init(nd *congest.Node) bool {
	s.sendRound(nd, 0)
	return false
}

func (s *portResendStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	acc := &s.acc[nd.V()]
	for _, msg := range in {
		x, _ := congest.Varint(msg.Payload, 0)
		*acc = *acc*17 + x + int64(msg.Port)
	}
	*acc = *acc*31 + int64(len(in))
	if round+1 >= 6 {
		s.out[nd.V()] = *acc
		return true
	}
	s.sendRound(nd, round+1)
	return false
}

func buildPortResendStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	out := make([]int64, g.N())
	return &portResendStep{out: out, acc: make([]int64, g.N())}, outputInts(out)
}

// silentRoundsStep: message-free rounds interleaved with broadcasts; mixes
// Node.Round into the accumulator, pinning the engine's round counter.
type silentRoundsStep struct {
	out   []int64
	total []int64
}

func (s *silentRoundsStep) Init(nd *congest.Node) bool {
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), 0))
	return false
}

func (s *silentRoundsStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	total := &s.total[nd.V()]
	*total = *total*7 + int64(len(in)) + int64(nd.Round())
	if round+1 >= 6 {
		s.out[nd.V()] = *total
		return true
	}
	if (round+1)%3 == 0 {
		nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), int64(round+1)))
	}
	return false
}

func buildSilentRoundsStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	out := make([]int64, g.N())
	return &silentRoundsStep{out: out, total: make([]int64, g.N())}, outputInts(out)
}

// budgetEdgeStep: payloads of exactly the CONGEST budget, built in place in
// an arena buffer.
type budgetEdgeStep struct {
	sum   []int64
	bytes int
}

func (s *budgetEdgeStep) Init(nd *congest.Node) bool {
	payload := nd.PayloadBuf(s.bytes)[:s.bytes]
	for i := range payload {
		payload[i] = byte(nd.V() + i)
	}
	nd.Broadcast(payload)
	return false
}

func (s *budgetEdgeStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	for _, msg := range in {
		for _, b := range msg.Payload {
			s.sum[nd.V()] += int64(b)
		}
	}
	return true
}

func buildBudgetEdgeStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	n := g.N()
	logn := bits.Len(uint(n))
	if logn < 1 {
		logn = 1
	}
	budgetBytes := 16 * logn / 8
	sum := make([]int64, g.N())
	return &budgetEdgeStep{sum: sum, bytes: budgetBytes}, outputInts(sum)
}

// Sleeping variants: programs ported to skip the rounds in which a node
// has nothing to do (congest.Node.SleepUntil), diffed against blocking
// references that run every round. They pin the stepped engine's
// wake-on-message skips, and the BlockingFromStep emulation of them, under
// every fault plan too: a crash must hit a sleeping node identically on
// both engines. Each variant also checks the skip contract itself through
// wakeCheck, so an engine that steps a sleeping node early or late fails
// the run instead of going unnoticed by a tolerant program.

// wakeCheck holds a sleeping variant's timers, one per node, and checks
// every Step against the node's: a node runs before its timer only with
// mail, and never after it.
type wakeCheck []int

func (w wakeCheck) sleep(nd *congest.Node, r int) {
	w[nd.V()] = r
	nd.SleepUntil(r)
}

func (w wakeCheck) check(nd *congest.Node, round int, in []congest.Incoming) {
	until := w[nd.V()]
	if round > until || (round < until && len(in) == 0) {
		panic(fmt.Sprintf("conformance: sleeping node stepped in round %d (timer %d, %d messages)",
			round, until, len(in)))
	}
}

// floodSleepStep is floodDistanceStep asleep between events: a node that
// has not been reached sleeps until mail, and a node that has relayed the
// flood sleeps until the last round, when it outputs.
type floodSleepStep struct {
	floodDistanceStep
	wake wakeCheck
}

func (s *floodSleepStep) Init(nd *congest.Node) bool {
	if s.floodDistanceStep.Init(nd) {
		return true
	}
	s.wake.sleep(nd, s.rounds-1)
	return false
}

func (s *floodSleepStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	s.wake.check(nd, round, in)
	if s.floodDistanceStep.Step(nd, round, in) {
		return true
	}
	s.wake.sleep(nd, s.rounds-1)
	return false
}

func buildFloodSleepStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	s := &floodSleepStep{floodDistanceStep: newFloodDistanceStep(g.N()), wake: make(wakeCheck, g.N())}
	return s, outputInts(s.dist)
}

// roundClockStep is buildRoundClock on timers alone: no node ever sends,
// and node v runs only in the rounds r with (r+v)%3 == 0 and in its last
// round, folding the skipped rounds' terms when it wakes. The timers
// differ between neighbours, so some swept rounds skip nodes whose timer
// is earlier than every stepped node's next one.
type roundClockStep struct {
	out   []int64
	nodes []roundClockNode
	wake  wakeCheck
}

// roundClockNode is one node's accumulator and the first round whose term
// is not yet folded into it.
type roundClockNode struct {
	acc  int64
	next int
}

// last is node v's last round.
func (s *roundClockStep) last(v int) int { return clockRounds(v) - 1 }

// sleep sets the timer to the first round after round that is due.
func (s *roundClockStep) sleep(nd *congest.Node, round int) {
	t := round + 1
	for (t+nd.V())%3 != 0 && t < s.last(nd.V()) {
		t++
	}
	s.wake.sleep(nd, t)
}

func (s *roundClockStep) Init(nd *congest.Node) bool {
	s.nodes[nd.V()].acc = nd.ID()
	s.sleep(nd, -1)
	return false
}

func (s *roundClockStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	s.wake.check(nd, round, in)
	c := &s.nodes[nd.V()]
	for ; c.next <= round; c.next++ {
		c.acc = c.acc*5 + int64(c.next+1) // the inbox is empty: no node sends
	}
	c.acc += int64(len(in)) * 1000
	if round == s.last(nd.V()) {
		s.out[nd.V()] = c.acc
		return true
	}
	s.sleep(nd, round)
	return false
}

func buildRoundClockStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	out := make([]int64, g.N())
	s := &roundClockStep{out: out, nodes: make([]roundClockNode, g.N()), wake: make(wakeCheck, g.N())}
	return s, outputInts(out)
}

// outputInts serializes a node-indexed int64 slice canonically.
func outputInts(xs []int64) func() []byte {
	return func() []byte {
		var buf []byte
		for _, x := range xs {
			buf = appendInt(buf, x)
		}
		return buf
	}
}
