package mcds

import (
	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// BlockingProgram is the three-phase MCDS algorithm in the blocking
// Program style: arbmds.PeelBlocking (per-neighbour whiteness where the
// stepped form's arbmds.Peel keeps a counter), then connectBlocking, an
// explicit flood-min loop and two connect Syncs written independently of
// the stepped form's segment arithmetic. A bookkeeping bug in either form
// shows up as a byte-level divergence in the conformance suite rather than
// being replicated into both.
func BlockingProgram(g *graph.Graph, eps float64, diam int, inD, inCDS []bool) congest.Program {
	ths := arbmds.Thresholds(g.MaxDegree(), eps)
	return func(nd *congest.Node) {
		joined := false
		arbmds.PeelBlocking(nd, ths, func() {
			joined = true
			inD[nd.V()] = true
			inCDS[nd.V()] = true
		})
		connectBlocking(nd, joined, diam, inCDS)
	}
}

// connectBlocking runs the orientation flood (diam Syncs) and the
// two-hop connect (2 Syncs).
func connectBlocking(nd *congest.Node, joined bool, diam int, inCDS []bool) {
	best := nd.ID()
	depth := 0
	parentPort := -1
	announce := func() {
		buf := congest.AppendVarint(nil, best)
		nd.Broadcast(congest.AppendUvarint(buf, uint64(depth)))
	}
	announce() // every node roots itself; the smallest ID wins the flood
	for r := 0; r < diam; r++ {
		improved := false
		for _, msg := range nd.Sync() {
			id, off := congest.Varint(msg.Payload, 0)
			if off < 0 {
				panic("mcds: bad orientation payload")
			}
			d, off := congest.Uvarint(msg.Payload, off)
			if off < 0 {
				panic("mcds: bad orientation payload")
			}
			if id < best || (id == best && int(d)+1 < depth) {
				best, depth, parentPort = id, int(d)+1, msg.Port
				improved = true
			}
		}
		if r == diam-1 {
			if joined && parentPort >= 0 {
				nd.Send(parentPort, nil)
			}
		} else if improved {
			announce()
		}
	}
	if in := nd.Sync(); len(in) > 0 {
		requireEmpty(in)
		inCDS[nd.V()] = true
		if parentPort >= 0 {
			nd.Send(parentPort, nil)
		}
	}
	if in := nd.Sync(); len(in) > 0 {
		requireEmpty(in)
		inCDS[nd.V()] = true
	}
}

// requireEmpty mirrors the stepped form's connect-segment assertion: the
// message-kind invariant (only empty tokens after the flood deadline),
// pinned against future edits. Too-small-DiamBound detection lives in the
// post-run verification, not here — see requireTokens in step.go.
func requireEmpty(in []congest.Incoming) {
	for _, msg := range in {
		if len(msg.Payload) != 0 {
			panic("mcds: orientation message after the flood deadline (DiamBound too small)")
		}
	}
}
