package arbmds

import (
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// BlockingProgram is the peeling algorithm written independently in the
// blocking Program style: PeelBlocking, recording joins in inD.
func BlockingProgram(g *graph.Graph, eps float64, inD []bool) congest.Program {
	ths := Thresholds(g.MaxDegree(), eps)
	return func(nd *congest.Node) {
		PeelBlocking(nd, ths, func() { inD[nd.V()] = true })
	}
}

// PeelBlocking runs the peel over the schedule ths as a loop with four
// Syncs per threshold, calling join in the round the node enters the
// dominating set. Where Peel maintains the support s as an
// incrementally-updated counter, this one tracks per-neighbour whiteness
// in a boolean slice and recounts s every phase — a deliberately different
// implementation of the same protocol, so a bookkeeping bug in either form
// shows up as a byte-level divergence in the conformance suite rather than
// being replicated into both. It returns after the final join inbox
// without a further Sync, so a caller's next sends share the final
// phase's send slot, as they do after Peel.Step reports last.
func PeelBlocking(nd *congest.Node, ths []int, join func()) {
	deg := nd.Degree()
	nbrWhite := make([]bool, deg)
	for p := range nbrWhite {
		nbrWhite[p] = true
	}
	white := true
	pendingCovered := false
	for _, th := range ths {
		// Report segment: announce a coverage picked up last phase.
		if pendingCovered {
			nd.Broadcast(nil)
			pendingCovered = false
		}
		for _, msg := range nd.Sync() {
			nbrWhite[msg.Port] = false
		}
		// Offer segment: recount support, broadcast it if candidate.
		s := 0
		for _, w := range nbrWhite {
			if w {
				s++
			}
		}
		if white {
			s++
		}
		candidate := s >= th
		if candidate {
			nd.Broadcast(congest.AppendUvarint(nil, uint64(s)))
		}
		offers := nd.Sync()
		// Nominate segment: whites pick the best candidate in N⁺.
		selfNom := false
		if white {
			bestS, bestID, bestPort := int64(-1), int64(-1), -1
			if candidate {
				bestS, bestID = int64(s), nd.ID()
			}
			for _, msg := range offers {
				cs, off := congest.Uvarint(msg.Payload, 0)
				if off < 0 {
					panic("arbmds: bad candidacy payload")
				}
				if id := nd.NeighborID(msg.Port); int64(cs) > bestS || (int64(cs) == bestS && id > bestID) {
					bestS, bestID, bestPort = int64(cs), id, msg.Port
				}
			}
			if bestPort >= 0 {
				nd.Send(bestPort, nil)
			} else if bestS >= 0 {
				selfNom = true
			}
		}
		nominations := nd.Sync()
		// Join segment: nominated candidates enter the set.
		if candidate && (selfNom || len(nominations) > 0) {
			join()
			if white {
				white = false
				nd.Broadcast([]byte{1})
			} else {
				nd.Broadcast([]byte{0})
			}
		}
		joins := nd.Sync()
		for _, msg := range joins {
			if len(msg.Payload) != 1 {
				panic("arbmds: bad join payload")
			}
			if msg.Payload[0] == 1 {
				nbrWhite[msg.Port] = false
			}
		}
		if white && len(joins) > 0 {
			white = false
			pendingCovered = true
		}
	}
}
