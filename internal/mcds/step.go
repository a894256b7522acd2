package mcds

import (
	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The native StepProgram form. One state machine drives all three phases;
// per-node state is four machine words (the shared-state pointer, the
// arbmds.Peel word and the flood-min BFS triple) in one slab, so a
// million-node run costs the engine's slot records plus 32 bytes per node.
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
// Round layout (peelRounds = 4·|schedule|, D̂ = shared.diam):
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

// mcdsShared is the read-mostly state every node of one run shares: the
// schedule and phase lengths (read-only) and the output vectors (distinct
// nodes write distinct slots, as the StepFactory contract allows). A
// node's own inD slot doubles as its membership flag in the orient and
// connect phases.
type mcdsShared struct {
	ths        []int
	peelRounds int // 4·len(ths)
	diam       int // D̂, the orientation phase length
	inD        []bool
	inCDS      []bool
}

// mcdsStep is the per-node state machine: 32 bytes, in one slab per run.
type mcdsStep struct {
	sh   *mcdsShared
	peel arbmds.Peel // dominate phase

	// Orientation phase: the flood-min BFS triple.
	bestID     int64
	depth      int32
	parentPort int32
}

// StepFactory builds the full three-phase program for g: peel at decay
// eps, orient for diam rounds, connect. inD and inCDS are the output
// vectors. The per-node states come from one slab indexed by node, so the
// factory serves one run.
func StepFactory(g *graph.Graph, eps float64, diam int, inD, inCDS []bool) congest.StepFactory {
	sh := &mcdsShared{
		ths:   arbmds.Thresholds(g.MaxDegree(), eps),
		diam:  diam,
		inD:   inD,
		inCDS: inCDS,
	}
	sh.peelRounds = 4 * len(sh.ths)
	slab := make([]mcdsStep, g.N())
	return func(nd *congest.Node) congest.StepProgram {
		ms := &slab[nd.V()]
		*ms = mcdsStep{sh: sh}
		return ms
	}
}

func (ms *mcdsStep) Init(nd *congest.Node) bool {
	ms.peel = arbmds.NewPeel(nd.Degree())
	return false
}

// bfsStart seeds the flood-min BFS: every node roots itself and announces
// (ownID, depth 0); the smallest ID wins the flood.
func (ms *mcdsStep) bfsStart(nd *congest.Node) {
	ms.bestID = nd.ID()
	ms.depth = 0
	ms.parentPort = -1
	buf := congest.AppendVarint(nd.PayloadBuf(20), ms.bestID)
	nd.Broadcast(congest.AppendUvarint(buf, 0))
}

func (ms *mcdsStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	if round < ms.sh.peelRounds {
		joined, last := ms.peel.Step(nd, ms.sh.ths, round, in)
		if joined {
			ms.sh.inD[nd.V()] = true
			ms.sh.inCDS[nd.V()] = true
		}
		if last {
			// The same send slot seeds the orientation flood.
			ms.bfsStart(nd)
			ms.sleep(nd, round)
		}
		return false
	}
	rel := round - ms.sh.peelRounds
	switch {
	case rel < ms.sh.diam:
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
			if id < ms.bestID || (id == ms.bestID && cand < ms.depth) {
				ms.bestID, ms.depth, ms.parentPort = id, cand, int32(msg.Port)
				improved = true
			}
		}
		if rel == ms.sh.diam-1 {
			// Orientation is stable (D̂ ≥ diameter): dominators below the
			// root launch the connect token toward their parent.
			if ms.sh.inD[nd.V()] && ms.parentPort >= 0 {
				nd.Send(int(ms.parentPort), nil)
			}
		} else if improved {
			buf := congest.AppendVarint(nd.PayloadBuf(20), ms.bestID)
			nd.Broadcast(congest.AppendUvarint(buf, uint64(ms.depth)))
		}
		ms.sleep(nd, round)
		return false
	case rel == ms.sh.diam:
		// First connect hop: token receivers (the dominators' parents) join
		// and forward the token once more.
		if len(in) > 0 {
			ms.requireTokens(in)
			ms.sh.inCDS[nd.V()] = true
			if ms.parentPort >= 0 {
				nd.Send(int(ms.parentPort), nil)
			}
		}
		ms.sleep(nd, round)
		return false
	default:
		// Second connect hop: grandparents join; the program ends for every
		// node at the same round, so Rounds = peelRounds + D̂ + 2 exactly.
		if len(in) > 0 {
			ms.requireTokens(in)
			ms.sh.inCDS[nd.V()] = true
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
	wake := ms.sh.peelRounds + ms.sh.diam + 1
	if launch := wake - 2; ms.sh.inD[nd.V()] && round < launch {
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
func (ms *mcdsStep) requireTokens(in []congest.Incoming) {
	for _, msg := range in {
		if len(msg.Payload) != 0 {
			panic("mcds: orientation message after the flood deadline (DiamBound too small)")
		}
	}
}
