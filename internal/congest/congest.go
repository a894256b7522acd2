// Package congest simulates the synchronous CONGEST model of distributed
// computing (Peleg 2000), as defined in Section 2 of the paper.
//
// A Network wraps a communication graph. Each node executes a Program;
// rounds are synchronous: all nodes compute, send at most one message per
// incident edge, and a barrier (Sync) delivers messages for the next round.
// The simulator enforces the O(log n) message-size bound and records
// bandwidth metrics.
//
// Two execution engines implement the same semantics (see Config.Engine):
//
//   - EngineStepped, the default: a stackless worker-pool scheduler for
//     programs written in the non-blocking StepProgram form. Per-node state
//     is a slab entry of the run's one program value instead of a
//     goroutine stack, so million-node graphs run in a few machine words
//     per node; payloads are bump-allocated from a per-round arena (see
//     Node.PayloadBuf).
//   - EngineGoroutine: one goroutine per node with a global barrier. The
//     reference engine; simple and adequate for small instances. Blocking
//     Programs (Run) always execute here, whatever Config.Engine says, since
//     a blocked goroutine cannot be suspended without its stack.
//
// Determinism: inboxes are sorted by port, programs may not use any entropy
// source, and no engine introduces any, so the outcome of a run is a
// pure function of the graph, the IDs and the program — independent of the
// engine and of goroutine scheduling. The conformance suite
// (internal/congest/conformance) enforces this cross-engine: all engines
// must produce byte-identical outputs and identical metrics on a corpus of
// graphs, for blocking programs and their stepped variants alike.
//
// # Writing a StepProgram
//
// A StepProgram is the resumable state-machine form of a Program: Init
// replaces the code before the first Sync, each Step replaces the code
// between two Syncs, and per-node slabs indexed by Node.V replace stack
// variables. One program value runs every node, so a node's state costs
// the slab entries and nothing more. The blocking flood
//
//	prog := func(nd *congest.Node) {
//		my := -1
//		if nd.V() == 0 {
//			my = 0
//		}
//		for r := 0; r < rounds; r++ {
//			if my == r {
//				nd.Broadcast([]byte{1})
//			}
//			in := nd.Sync()
//			if my < 0 && len(in) > 0 {
//				my = r + 1
//			}
//		}
//		dist[nd.V()] = my
//	}
//
// becomes, with dist itself as the slab that holds every node's my,
//
//	type flood struct {
//		rounds int
//		dist   []int // per node: its hop distance, -1 until reached
//	}
//
//	func (f *flood) Init(nd *congest.Node) bool {
//		f.dist[nd.V()] = -1
//		if nd.V() == 0 {
//			f.dist[0] = 0
//			nd.Broadcast([]byte{1}) // the sends of loop iteration 0
//		}
//		return false
//	}
//
//	func (f *flood) Step(nd *congest.Node, r int, in []congest.Incoming) bool {
//		my := &f.dist[nd.V()]
//		if *my < 0 && len(in) > 0 { // the receives of loop iteration r
//			*my = r + 1
//		}
//		if r+1 >= f.rounds {
//			return true // done: like returning from the blocking Program
//		}
//		if *my == r+1 {
//			nd.Broadcast([]byte{1}) // the sends of loop iteration r+1
//		}
//		return false
//	}
//
// run with
//
//	net.RunStepped(&flood{rounds: rounds, dist: dist})
//
// A node that only reacts to mail or to a known round can sleep in
// between (Node.SleepUntil): the flood above could call
// nd.SleepUntil(f.rounds-1) at the end of Init and of every Step, and
// the stepped engine would then run each node only when a message reaches
// it and in the last round.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"congestds/internal/graph"
)

// Engine selects the execution engine that drives a run. Both engines
// implement identical synchronous-round semantics; they differ only in how
// the barrier and message delivery are scheduled.
type Engine int

// Supported engines.
const (
	// EngineStepped drives StepPrograms with a GOMAXPROCS-sized worker pool
	// over a CSR slot layout: no per-node goroutine, no condvar parking,
	// message slots packed into 4-byte records naming length-prefixed
	// entries in per-chunk byte arenas (invisible to the GC), payloads
	// bump-allocated and recycled without per-send allocation. The zero
	// value. Blocking Programs run on the goroutine engine.
	EngineStepped Engine = iota
	// EngineGoroutine runs one goroutine per node with a global
	// mutex/condvar barrier: the reference engine, and the only one that
	// runs blocking Programs.
	EngineGoroutine
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineGoroutine:
		return "goroutine"
	case EngineStepped:
		return "stepped"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// Engines lists all engines, the goroutine reference first (used by
// differential tests and benchmarks).
func Engines() []Engine { return []Engine{EngineGoroutine, EngineStepped} }

// Config parameterizes a Network. The zero value selects the stepped
// engine, the default bandwidth factor and round limit.
type Config struct {
	// Engine selects the engine RunStepped uses. Zero means EngineStepped;
	// EngineGoroutine runs StepPrograms through the blocking adapter. Run
	// ignores it: blocking Programs always use the goroutine engine.
	Engine Engine
	// BandwidthFactor c gives a per-edge, per-round budget of c·⌈log₂ n⌉
	// bits ("messages of size O(log n)", Section 2). Zero or negative
	// means 16, enough for a constant number of identifiers and fixed-point
	// values per message, as the paper assumes.
	BandwidthFactor int
	// MaxRounds aborts runaway programs. Zero or negative means 10_000_000.
	MaxRounds int
	// Ctx, when non-nil, stops runs: its cancellation or deadline is
	// checked at every round boundary and surfaces as ErrDeadline, so a
	// run never outlives the context by more than the round in progress;
	// metrics report how far the run got, like every other failure.
	// (Granularity is per round: a single Step that never returns cannot
	// be preempted cooperatively.) One context bounds every run on the
	// Network, so a multi-phase pipeline shares a single budget.
	Ctx context.Context
	// Hooks, when non-nil, intercepts engine events for fault injection
	// (see internal/chaos). Production runs leave it nil; the nil check is
	// the only cost on the hot paths.
	Hooks Hooks
	// Observer, when non-nil, receives per-round telemetry (round
	// boundaries, traffic counters, engine scheduler events — see
	// internal/obs for the sinks). Observers can never change an outcome:
	// the conformance suite proves runs are byte-identical with and
	// without one. Like Hooks, nil costs one branch on the hot paths.
	Observer Observer
}

// Run is the execution context an algorithm package's Params embeds: how
// its simulated runs execute, never what they compute. Every field's zero
// value is the default, and none of them enters a result, a round count or
// a cache key (family.Params.Key leaves them out).
type Run struct {
	// Sim selects the engine (Config.Engine; zero: EngineStepped). The
	// engines are byte-identical by the conformance suite, so it changes
	// wall-clock time and memory only.
	Sim Engine
	// Ctx, when non-nil, bounds every run of the solve, however many it
	// spans (Config.Ctx): its cancellation or deadline surfaces as
	// ErrDeadline.
	Ctx context.Context
	// Observer, when non-nil, receives every run's per-round telemetry, one
	// segment per run (Config.Observer); attaching one never changes the
	// outcome.
	Observer Observer
}

// Config returns the network configuration of r with the given round
// clamp (zero or negative: the default).
func (r Run) Config(maxRounds int) Config {
	return Config{Engine: r.Sim, MaxRounds: maxRounds, Ctx: r.Ctx, Observer: r.Observer}
}

// Errors reported by Network.Run and Network.RunStepped.
var (
	// ErrBandwidth is returned when a CONGEST message exceeds the budget.
	ErrBandwidth = errors.New("congest: message exceeds bandwidth budget")
	// ErrMaxRounds is returned when a run exceeds Config.MaxRounds.
	ErrMaxRounds = errors.New("congest: exceeded MaxRounds")
	// ErrConfig is wrapped by every error reporting caller misuse — an
	// invalid Config, or parameters an algorithm cannot honour — as opposed
	// to a run failing. Callers distinguish "fix your configuration" from
	// "the run failed" with errors.Is(err, ErrConfig) or SentinelClass's
	// "config".
	ErrConfig = errors.New("congest: invalid configuration")
)

// Network is a simulated synchronous network over a fixed graph.
type Network struct {
	g   *graph.Graph
	cfg Config

	// bwBits is the per-edge per-round bit budget, computed once at
	// NewNetwork (graph and config are immutable afterwards) so the Send
	// hot path reads a field instead of recomputing bits.Len-and-multiply
	// on every message (see BenchmarkNodeSend).
	bwBits int

	// topo is the CSR slot layout (the stepped engine's slots, both
	// engines' receiver ports), built lazily once per Network and shared
	// across runs.
	topoOnce sync.Once
	topo     *topology
}

// NewNetwork creates a network over g.
func NewNetwork(g *graph.Graph, cfg Config) *Network {
	if cfg.BandwidthFactor <= 0 {
		cfg.BandwidthFactor = 16
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10_000_000
	}
	logn := max(bits.Len(uint(g.N())), 1)
	return &Network{g: g, cfg: cfg, bwBits: cfg.BandwidthFactor * logn}
}

// Graph returns the underlying communication graph.
func (net *Network) Graph() *graph.Graph { return net.g }

// BandwidthBits returns the per-edge per-round bit budget.
func (net *Network) BandwidthBits() int { return net.bwBits }

// Incoming is a message delivered to a node: the local port it arrived on
// and its payload.
type Incoming struct {
	Port    int
	Payload []byte
}

// Program is the code executed by every node, written in blocking style:
// call Send to queue messages, then Sync to advance one synchronous round
// and receive. Returning ends the node's participation (it stays silent and
// discards incoming messages).
type Program func(nd *Node)

// scheduler is the engine-side contract behind a Node: it advances the
// node through the synchronous barrier and exposes the round counter.
type scheduler interface {
	// barrier ends the node's round: its outbox is delivered and, once all
	// running nodes have arrived, nd.io.inbox holds the next round's messages
	// sorted by port.
	barrier(nd *Node)
	// currentRound returns the number of deliveries performed so far.
	currentRound() int
}

// Node is the per-node API available inside a Program. The goroutine
// engine keeps one Node per node for the whole run; what a node needs
// only while it computes (its outbox, the goroutine engine's inbox, the
// stepped engine's payload arena) sits behind io. The stepped engine keeps
// no per-node Node at all: each worker lends its own to the nodes it runs,
// one Init/Step call at a time, and keeps the sleep round between calls.
type Node struct {
	net     *Network
	sched   scheduler
	v       int
	stopped bool
	// sleep is the StepProgram round the node next runs even without mail
	// (see SleepUntil); 0 = awake. Cleared before every Init/Step call. An
	// int32 beside the bool shares its word.
	sleep int32
	// io is the node's per-call I/O. The goroutine engine gives every node
	// its own; on the stepped engine it is the worker's.
	io *nodeIO
}

// nodeIO is the I/O a node uses while it computes.
type nodeIO struct {
	outbox []outMsg
	// top is the highest port in outbox, valid while outbox is non-empty:
	// a Send above it cannot replace a queued message.
	top int
	// inbox holds the next round's messages sorted by port (goroutine
	// engine only; the stepped engine hands Step its inbox directly).
	inbox []Incoming
	// arena is the payload arena of the worker driving the node; nil on
	// the goroutine engine, where PayloadBuf falls back to make.
	arena *payloadArena
}

type outMsg struct {
	port    int
	payload []byte
}

// V returns the node's index in 0..n-1. Programs should use V only for
// host-side bookkeeping (output slots); distributed decisions must be based
// on ID, degrees and messages, as in the real model.
func (nd *Node) V() int { return nd.v }

// ID returns the node's unique identifier.
func (nd *Node) ID() int64 { return nd.net.g.ID(nd.v) }

// N returns the number of nodes in the network, known to all nodes (the
// standard assumption that fixes the O(log n) message size).
func (nd *Node) N() int { return nd.net.g.N() }

// Degree returns the number of incident edges (ports 0..Degree()-1).
func (nd *Node) Degree() int { return nd.net.g.Degree(nd.v) }

// NeighborID returns the identifier of the neighbour on the given port.
// Knowing neighbour identifiers is the KT-1 assumption the paper uses
// ("v knows its neighbors' IDs", proof of Lemma 3.4).
func (nd *Node) NeighborID(port int) int64 {
	return nd.net.g.ID(int(nd.net.g.Neighbors(nd.v)[port]))
}

// Round returns the current round number (0 before the first Sync).
func (nd *Node) Round() int { return nd.sched.currentRound() }

// Send queues a message to the neighbour on the given port for delivery at
// the next Sync. At most one message per port per round; a second Send on
// the same port in one round replaces the first. Zero-length payloads are
// canonicalized to nil on delivery, so the representation of an empty
// message is identical on every engine.
func (nd *Node) Send(port int, payload []byte) {
	if port < 0 || port >= nd.Degree() {
		panic(runError{fmt.Errorf("congest: node %d sends on invalid port %d", nd.v, port)})
	}
	if len(payload) == 0 {
		payload = nil
	}
	if h := nd.net.cfg.Hooks; h != nil {
		// Before the bandwidth check, so a payload grown past the budget
		// fails identically on every engine; re-canonicalize afterwards so
		// an injected truncation-to-empty stays representation-identical.
		payload = h.AlterPayload(nd.v, port, nd.Round(), payload)
		if len(payload) == 0 {
			payload = nil
		}
	}
	if budget := nd.net.bwBits; len(payload)*8 > budget {
		panic(runError{fmt.Errorf("%w: node %d sent %d bits, budget %d",
			ErrBandwidth, nd.v, len(payload)*8, budget)})
	}
	io := nd.io
	if len(io.outbox) == 0 || port > io.top {
		// Nothing queued on this port: Broadcast on an empty outbox is O(d).
		io.top = port
	} else {
		for i := range io.outbox {
			if io.outbox[i].port == port {
				io.outbox[i].payload = payload
				return
			}
		}
	}
	io.outbox = append(io.outbox, outMsg{port: port, payload: payload})
}

// Broadcast queues the same payload on every port.
func (nd *Node) Broadcast(payload []byte) {
	for p := 0; p < nd.Degree(); p++ {
		nd.Send(p, payload)
	}
}

// PayloadBuf returns a zero-length scratch buffer with the given capacity
// for building a payload to Send in the current round. On EngineStepped the
// buffer is bump-allocated from the worker's scratch arena and recycled at
// the end of the round — deposit copies the sent bytes into the packed slot
// arena — eliminating the per-send allocation; on the goroutine engine it
// falls back to make. Buffers obtained here must be filled and sent in the
// same Init/Step call that allocated them, and a received payload (a view
// over the sender's slot arena) is only valid until the receiving Step
// returns (copy it to retain it).
func (nd *Node) PayloadBuf(capacity int) []byte {
	if a := nd.io.arena; a != nil {
		return a.alloc(capacity)
	}
	return make([]byte, 0, capacity)
}

// SleepUntil tells the engine that the StepProgram has nothing to do until
// round r unless a message arrives: the node's Step(r') is skipped for
// every round r' < r whose inbox is empty, and a message arriving earlier
// wakes the node for the round it arrives in. The sleep ends at the node's
// next Init/Step call, whichever woke it; a program that wants to sleep on
// calls SleepUntil again from that call. r ≤ Round() (Step(Round()) runs
// next anyway) is a no-op, and a later call in the same Init/Step replaces
// an earlier one. Rounds past 2³¹-1 are clamped to it.
//
// Skipped rounds cost the node nothing on the stepped engine: no inbox
// scan and no Step call. BlockingFromStep emulates the same skips on the
// goroutine engine, so outputs and metrics are identical. A sleeping node
// sends nothing, and fault hooks still see every compute opportunity (a
// sleeping node can crash). Blocking Programs ignore the call.
func (nd *Node) SleepUntil(r int) {
	if r <= nd.Round() {
		return
	}
	if r > math.MaxInt32 {
		r = math.MaxInt32
	}
	nd.sleep = int32(r)
}

// Sync ends the node's current round: queued messages are exchanged and the
// messages sent to this node are returned, sorted by port. Sync blocks until
// every running node has also called Sync (or returned).
func (nd *Node) Sync() []Incoming {
	nd.sched.barrier(nd)
	if h := nd.net.cfg.Hooks; h != nil {
		// The node is past the barrier, about to start compute opportunity
		// Round() (= Step round Round()-1 in stepped form). A crash here ends
		// its participation silently: the unwound goroutine's deferred finish
		// delivers an empty outbox, matching the stepped engine's handling.
		if h.Crash(nd.v, nd.Round()) {
			nd.io.inbox = nil
			panic(crashStop{})
		}
	}
	in := nd.io.inbox
	nd.io.inbox = nil
	return in
}

// Metrics summarizes a run. ChargedRounds accounts for structurally
// simulated phases (see Ledger); TotalRounds is the sum. It is a plain
// comparable record: the conformance suite compares whole values.
type Metrics struct {
	Rounds        int   // synchronous rounds executed by the engine
	ChargedRounds int   // rounds charged by structural simulation
	Messages      int64 // messages delivered
	Bits          int64 // payload bits delivered
	MaxMsgBits    int   // largest single message
	BandwidthBits int   // per-edge per-round budget
}

// AvgMsgBits returns the mean payload size: the message-weighted mean over
// every merged stage, not the mean of the stage means (see
// TestMetricsAddUnequalStages); 0 when no message was sent.
func (m Metrics) AvgMsgBits() float64 {
	if m.Messages == 0 {
		return 0
	}
	return float64(m.Bits) / float64(m.Messages)
}

// Add merges other into m (used to combine pipeline stages). MaxMsgBits is
// the max of the maxima, so unequal stages merge correctly.
func (m *Metrics) Add(other Metrics) {
	m.Rounds += other.Rounds
	m.ChargedRounds += other.ChargedRounds
	m.Messages += other.Messages
	m.Bits += other.Bits
	m.MaxMsgBits = max(m.MaxMsgBits, other.MaxMsgBits)
	if m.BandwidthBits == 0 {
		m.BandwidthBits = other.BandwidthBits
	}
}

// tally is a run's traffic account, the one place either engine counts a
// deposited message. The goroutine engine keeps one under its mutex; the
// stepped engine keeps one per worker and folds them at the round barrier.
type tally struct {
	msgs    int64
	bits    int64
	maxBits int
	hist    MsgHist
}

// count counts one deposited message of the given payload length in
// bytes. Only payload bits are counted.
func (t *tally) count(payloadBytes int) {
	b := payloadBytes * 8
	t.msgs++
	t.bits += int64(b)
	t.maxBits = max(t.maxBits, b)
	t.hist[min(bits.Len(uint(b)), len(t.hist)-1)]++
}

// add folds o into t.
func (t *tally) add(o *tally) {
	t.msgs += o.msgs
	t.bits += o.bits
	t.maxBits = max(t.maxBits, o.maxBits)
	t.hist.Merge(o.hist)
}

// stats is the RoundEnd snapshot of the traffic counted so far.
func (t tally) stats(round, live, awake int) RoundStats {
	return RoundStats{Round: round, Live: live, Awake: awake,
		Messages: t.msgs, Bits: t.bits, MaxMsgBits: t.maxBits, Hist: t.hist}
}

// metrics is the Metrics of a run on net that delivered the given number
// of rounds and counted traffic t. Failed runs report how far they got
// the same way, so callers can diagnose ErrMaxRounds and ErrBandwidth from
// the metrics alone.
func (net *Network) metrics(rounds int, t tally) Metrics {
	return Metrics{Rounds: rounds, Messages: t.msgs, Bits: t.bits,
		MaxMsgBits: t.maxBits, BandwidthBits: net.bwBits}
}

// TotalRounds returns executed plus charged rounds.
func (m Metrics) TotalRounds() int { return m.Rounds + m.ChargedRounds }

// runError wraps an error thrown inside a node goroutine so the engine can
// distinguish simulator-raised conditions from program bugs.
type runError struct{ err error }

// Run executes prog on every node until all nodes return. It returns the
// collected metrics. Any simulator violation (bandwidth, bad port) or panic
// inside a program aborts the run with an error. A blocking Program needs a
// goroutine stack per node while parked at Sync, so Run always uses the
// goroutine engine, whatever Config.Engine says; only StepPrograms (see
// RunStepped) execute stacklessly. Both forms produce identical results and
// metrics.
func (net *Network) Run(prog Program) (Metrics, error) {
	return net.runGoroutine(prog)
}

// recoverNode converts a panic inside a node's program into the run failure
// reported by the engine via fail.
func recoverNode(v int, fail func(error)) {
	if r := recover(); r != nil {
		if _, ok := r.(crashStop); ok {
			// An injected crash-stop: the node just stops participating;
			// the run itself is healthy.
			return
		}
		if re, ok := r.(runError); ok {
			fail(re.err)
			return
		}
		fail(fmt.Errorf("congest: node %d panicked: %v", v, r))
	}
}
