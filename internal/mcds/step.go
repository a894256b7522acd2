package mcds

import (
	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The native StepProgram form. One state machine drives all three phases;
// per-node state is three machine words (the arbmds.Peel word and the
// flood-min BFS triple) in one slab held by the run's single program
// value, so a million-node run costs the engine's slot records plus 24
// bytes per node.
// The dominate phase inherits the peel's sleep: non-candidates run only on
// mail and when a phase may make them candidates, and every node wakes for
// the peel's last round, whose send slot seeds the orientation flood.
// From there on every node sleeps after each step (mcdsStep.sleep) and
// runs only on mail and on two due rounds: a dominator at
// peelRounds+D̂-1, where it launches the connect token, and every node at
// peelRounds+D̂+1, the last round. The flood and the connect hops thus
// cost the nodes with mail, not n per round, and a loose D̂ (D̂ = n) adds
// rounds in which nothing is due.
//
// Round layout (peelRounds = 4·|schedule|, D̂ = mcdsStep.diam):
//
//	[0, peelRounds)                   dominate: arbmds.Peel, the
//	                                  bounded-arboricity threshold peel
//	[peelRounds, peelRounds+D̂)        orient: flood-min BFS; message =
//	                                  varint(rootID) ++ uvarint(depth),
//	                                  broadcast only on improvement
//	peelRounds+D̂, peelRounds+D̂+1     connect: empty token hops two steps
//	                                  toward the root, joining receivers
//
// Message kinds never collide: peel segments imply their types by round
// index, BFS messages are always non-empty, connect tokens always empty —
// and the two only share a round boundary in that order.
//
// The blocking twin in blocking.go runs arbmds.PeelBlocking and an
// independently written orient/connect loop; the conformance suite holds
// the two byte-identical on every engine.

// mcdsStep is the run's program: the schedule and phase lengths
// (read-only), the output vectors (distinct nodes write distinct slots, as
// the StepProgram contract allows) and the per-node states. A node's own
// inD slot doubles as its membership flag in the orient and connect
// phases.
type mcdsStep struct {
	ths        []int
	peelRounds int // 4·len(ths)
	diam       int // D̂, the orientation phase length
	inD        []bool
	inCDS      []bool
	nodes      []mcdsNode // indexed by node
}

// mcdsNode is one node's state: 24 bytes.
type mcdsNode struct {
	peel arbmds.Peel // dominate phase

	// Orientation phase: the flood-min BFS triple.
	bestID     int64
	depth      int32
	parentPort int32
}

// StepProgram builds the full three-phase program for g: peel at decay
// eps, orient for diam rounds, connect. inD and inCDS are the output
// vectors. The per-node states are one slab indexed by node, so the
// program serves one run.
func StepProgram(g *graph.Graph, eps float64, diam int, inD, inCDS []bool) congest.StepProgram {
	ms := &mcdsStep{
		ths:   arbmds.Thresholds(g.MaxDegree(), eps),
		diam:  diam,
		inD:   inD,
		inCDS: inCDS,
		nodes: make([]mcdsNode, g.N()),
	}
	ms.peelRounds = 4 * len(ms.ths)
	return ms
}

func (ms *mcdsStep) Init(nd *congest.Node) bool {
	ms.nodes[nd.V()] = mcdsNode{peel: arbmds.NewPeel(nd.Degree())}
	return false
}

// bfsStart seeds the flood-min BFS: every node roots itself and announces
// (ownID, depth 0); the smallest ID wins the flood.
func (s *mcdsNode) bfsStart(nd *congest.Node) {
	s.bestID = nd.ID()
	s.depth = 0
	s.parentPort = -1
	buf := congest.AppendVarint(nd.PayloadBuf(20), s.bestID)
	nd.Broadcast(congest.AppendUvarint(buf, 0))
}

func (ms *mcdsStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	s := &ms.nodes[nd.V()]
	if round < ms.peelRounds {
		joined, last := s.peel.Step(nd, ms.ths, round, in)
		if joined {
			ms.inD[nd.V()] = true
			ms.inCDS[nd.V()] = true
		}
		if last {
			// The same send slot seeds the orientation flood.
			s.bfsStart(nd)
			ms.sleep(nd, round)
		}
		return false
	}
	rel := round - ms.peelRounds
	switch {
	case rel < ms.diam:
		improved := false
		for _, msg := range in {
			id, off := congest.Varint(msg.Payload, 0)
			if off < 0 {
				panic("mcds: bad orientation payload")
			}
			d, off := congest.Uvarint(msg.Payload, off)
			if off < 0 {
				panic("mcds: bad orientation payload")
			}
			cand := int32(d) + 1
			if id < s.bestID || (id == s.bestID && cand < s.depth) {
				s.bestID, s.depth, s.parentPort = id, cand, int32(msg.Port)
				improved = true
			}
		}
		if rel == ms.diam-1 {
			// Orientation is stable (D̂ ≥ diameter): dominators below the
			// root launch the connect token toward their parent.
			if ms.inD[nd.V()] && s.parentPort >= 0 {
				nd.Send(int(s.parentPort), nil)
			}
		} else if improved {
			buf := congest.AppendVarint(nd.PayloadBuf(20), s.bestID)
			nd.Broadcast(congest.AppendUvarint(buf, uint64(s.depth)))
		}
		ms.sleep(nd, round)
		return false
	case rel == ms.diam:
		// First connect hop: token receivers (the dominators' parents) join
		// and forward the token once more.
		if len(in) > 0 {
			requireTokens(in)
			ms.inCDS[nd.V()] = true
			if s.parentPort >= 0 {
				nd.Send(int(s.parentPort), nil)
			}
		}
		ms.sleep(nd, round)
		return false
	default:
		// Second connect hop: grandparents join; the program ends for every
		// node at the same round, so Rounds = peelRounds + D̂ + 2 exactly.
		if len(in) > 0 {
			requireTokens(in)
			ms.inCDS[nd.V()] = true
		}
		return true
	}
}

// sleep ends the node's step in round, from the peel's last round on: it
// sleeps until its next due round (the token launch for a dominator still
// before it, else the last round). Everything else it does (improve its
// BFS triple, rebroadcast, join and forward a token) is a reaction to
// mail, and mail wakes it, so the outcome is BlockingProgram's.
func (ms *mcdsStep) sleep(nd *congest.Node, round int) {
	wake := ms.peelRounds + ms.diam + 1
	if launch := wake - 2; ms.inD[nd.V()] && round < launch {
		wake = launch
	}
	nd.SleepUntil(wake)
}

// requireTokens is a defensive assertion on the connect segments: with
// D̂ ≥ diameter the flood quiesces before its last round (improvement
// broadcasts stop at round D̂-2), so only empty connect tokens can arrive
// here, and a too-small D̂ under-propagates rather than over-sends. The
// authoritative too-small-D̂ guard is therefore the post-run
// verification in Solve (verify.CheckCDS);
// this assertion only pins the protocol's message-kind invariant against
// future edits.
func requireTokens(in []congest.Incoming) {
	for _, msg := range in {
		if len(msg.Payload) != 0 {
			panic("mcds: orientation message after the flood deadline (DiamBound too small)")
		}
	}
}
