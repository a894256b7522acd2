package arbmds

import (
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The native StepProgram form of the peeling algorithm. Per-node state is
// a Peel — a support counter maintained incrementally from the phase
// messages plus the white/nominated/candidate flags, one machine word — in
// one slab held by the run's single program value next to the shared
// schedule and output, so a million-node run costs the engine's slot
// records plus a few words per node, no goroutine stacks.
//
// Message types are implied by the round segment (all nodes run the same
// 4-segment phase schedule in lockstep), so three of the four message
// kinds are empty payloads and only the candidacy offer carries an
// integer:
//
//	segment 4t   report:   empty        (sender was covered last phase)
//	segment 4t+1 offer:    uvarint(s)   (sender is a candidate, s ≥ θ_t)
//	segment 4t+2 nominate: empty        (sent to the chosen candidate)
//	segment 4t+3 join:     1 byte       (1 = sender was still white)
//
// Peel is exported because it is also the dominate phase of
// internal/mcds, which embeds it in its own per-node state. The blocking
// twin in blocking.go (PeelBlocking) independently re-derives the same
// protocol (tracking per-neighbour whiteness instead of a counter); the
// conformance suite holds the two byte-identical on every engine.

// Segment layout of a phase.
const (
	segReport = iota
	segOffer
	segNominate
	segJoin
	segPerPhase
)

// Peel is one node's state in the threshold peel. The schedule is not
// held here but passed to every Step, so a family embedding a Peel in its
// per-node state pays one machine word for it.
type Peel struct {
	s         int32 // support: white members of the closed neighbourhood
	white     bool  // not yet dominated
	selfNom   bool  // nominated itself in the current phase
	candidate bool  // s ≥ θ held at this phase's offer segment
}

// NewPeel returns the state of a node of degree deg before round 0: white,
// with its whole closed neighbourhood white. Round 0 is the first phase's
// report segment, so there is nothing to send before it.
func NewPeel(deg int) Peel {
	return Peel{s: int32(deg) + 1, white: true}
}

// Step runs round `round` of the peel over the schedule ths (4 rounds per
// threshold, so the peel occupies rounds [0, 4·len(ths))). joined reports
// that the node entered the dominating set in this round; the caller
// records it here, in the round it happens. last reports the final
// round: every node is covered and Step has sent nothing in it, so the
// caller may stop or use the round's send slot for its next phase.
//
// Step puts a non-candidate to sleep (Node.SleepUntil) until the report
// round of the first later phase whose threshold its support reaches, or
// the final round if there is none; mail wakes it earlier. The rounds it
// skips are ones in which it would receive nothing, send nothing and
// change nothing, so the outcome is that of PeelBlocking, which never
// sleeps.
func (p *Peel) Step(nd *congest.Node, ths []int, round int, in []congest.Incoming) (joined, last bool) {
	phase := round / segPerPhase
	switch round % segPerPhase {
	case segReport:
		// Neighbours covered last phase leave the white set.
		p.s -= int32(len(in))
		// Candidacy is decided on the now-exact support and offered to the
		// neighbourhood.
		p.candidate = p.s >= int32(ths[phase])
		if p.candidate {
			nd.Broadcast(congest.AppendUvarint(nd.PayloadBuf(5), uint64(p.s)))
		}
	case segOffer:
		// White nodes nominate the best candidate in N⁺: max support, ties
		// to the larger identifier.
		if !p.white {
			return false, false
		}
		bestS, bestID, bestPort := int64(-1), int64(-1), -1
		if p.candidate {
			bestS, bestID = int64(p.s), nd.ID()
		}
		for _, msg := range in {
			cs, off := congest.Uvarint(msg.Payload, 0)
			if off < 0 {
				panic("arbmds: bad candidacy payload")
			}
			id := nd.NeighborID(msg.Port)
			if int64(cs) > bestS || (int64(cs) == bestS && id > bestID) {
				bestS, bestID, bestPort = int64(cs), id, msg.Port
			}
		}
		p.selfNom = bestS >= 0 && bestPort < 0
		if bestPort >= 0 {
			nd.Send(bestPort, nil)
		}
	case segNominate:
		// Nominated candidates join and announce it; the tag byte says
		// whether the joiner itself just left the white set, so receivers
		// can keep their support counters exact.
		if p.candidate && (p.selfNom || len(in) > 0) {
			joined = true
			wasWhite := byte(0)
			if p.white {
				wasWhite = 1
				p.white = false
				p.s--
			}
			nd.Broadcast(append(nd.PayloadBuf(1), wasWhite))
		}
		p.selfNom = false
	case segJoin:
		for _, msg := range in {
			if len(msg.Payload) != 1 {
				panic("arbmds: bad join payload")
			}
			if msg.Payload[0] == 1 {
				p.s--
			}
		}
		covered := p.white && len(in) > 0
		if covered {
			p.white = false
			p.s--
		}
		if phase+1 >= len(ths) {
			return false, true // θ reached 1: every node is covered
		}
		if covered {
			// Covered by a neighbour's join: report it next phase.
			nd.Broadcast(nil)
		}
	}
	if !p.candidate {
		// Until the next phase whose threshold its support reaches, a
		// non-candidate only reacts to mail (offers, joins, reports), and
		// mail wakes it. A candidate stays awake: it may nominate itself
		// and must recompute its candidacy at the next report.
		nd.SleepUntil(p.wakeRound(ths, phase))
	}
	return joined, false
}

// wakeRound returns the round a non-candidate in phase must next run even
// without mail: the report round of the first later phase whose threshold
// its support reaches, or the peel's last round if there is none. A
// non-candidate's support only falls, and only on mail, so no earlier
// round can make it a candidate.
func (p *Peel) wakeRound(ths []int, phase int) int {
	for t := phase + 1; t < len(ths); t++ {
		if p.s >= int32(ths[t]) {
			return t * segPerPhase
		}
	}
	return len(ths)*segPerPhase - 1
}

// peelStep is arbmds's StepProgram: what every node of the run shares and
// one Peel per node, 8 bytes, in one slab.
type peelStep struct {
	ths   []int  // threshold schedule (read-only)
	inD   []bool // output, nodes write disjoint slots
	peels []Peel // indexed by node
}

// StepProgram builds the native stepped form for g: the threshold schedule
// is computed once from Δ (all nodes know it) and shared read-only across
// nodes; inD is the output vector (distinct nodes write distinct slots, as
// the StepProgram contract allows). The per-node states are one slab
// indexed by node, so the program serves one run.
func StepProgram(g *graph.Graph, eps float64, inD []bool) congest.StepProgram {
	return &peelStep{ths: Thresholds(g.MaxDegree(), eps), inD: inD, peels: make([]Peel, g.N())}
}

func (ps *peelStep) Init(nd *congest.Node) bool {
	ps.peels[nd.V()] = NewPeel(nd.Degree())
	return false
}

func (ps *peelStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	joined, last := ps.peels[nd.V()].Step(nd, ps.ths, round, in)
	if joined {
		ps.inD[nd.V()] = true
	}
	return last
}
