package congest

import "sync/atomic"

// topology is the CSR slot layout of a graph: every directed edge (sender,
// port) owns a unique destination slot, so deposits are plain lock-free
// array writes (each slot has exactly one writer and one reader per round)
// and a receiver's slots are already ordered by its port. Built once per
// Network and shared by every stepped run on it.
type topology struct {
	// inOff[v]..inOff[v+1] are node v's inbox slots, one per port, in port
	// order. The same range indexes v's out-edges: out-edge (v, port p) is
	// entry inOff[v]+p of destSlot.
	inOff []int32
	// destSlot[inOff[v]+p] is the inbox slot of the neighbour on v's port p,
	// i.e. inOff[u]+q where u is that neighbour and q is the port of v at u.
	destSlot []int32
}

func buildTopology(net *Network) *topology {
	g := net.g
	n := g.N()
	t := &topology{inOff: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		t.inOff[v+1] = t.inOff[v] + int32(g.Degree(v))
	}
	t.destSlot = make([]int32, 2*g.M())
	for u := 0; u < n; u++ {
		for q, w := range g.Neighbors(u) {
			v := int(w)
			p := portOf(g, v, u) // u sits on port p of v
			t.destSlot[t.inOff[v]+int32(p)] = t.inOff[u] + int32(q)
		}
	}
	return t
}

// topology returns the Network's cached CSR slot layout, building it on
// first use.
func (net *Network) topology() *topology {
	net.topoOnce.Do(func() { net.topo = buildTopology(net) })
	return net.topo
}

// depositOutboxPacked is the stepped engine's deposit: payload bytes are
// copied into the depositing chunk's slotArena and each slot gets a packed
// {offset, tagged length} record. The tagged length (slotRec) distinguishes
// an absent message from a present-but-empty one. The metrics accounting is
// line-for-line the goroutine engine's deposit — the cross-engine
// byte-identity contract depends on the two never diverging (the
// conformance suite compares the metrics of every run, failed runs
// included). ok is false when the arena outgrew the records' 32-bit offset
// range; the caller must fail the run (records past the limit hold wrapped
// offsets, but the failure stops the round from being delivered, so no
// reader sees them).
//
// Each receiver (nbrs[port], v's neighbours) gets the next phase's mail bit
// in marks; the plain load first keeps a receiver that already has mail
// from paying a second atomic write.
func (t *topology) depositOutboxPacked(v int, outbox []outMsg, recs []slotRec, arena *slotArena, phase int, hist *MsgHist, nbrs []int32, marks []atomic.Uint32) (msgs, bitsSum int64, maxB int, ok bool) {
	base := t.inOff[v]
	mail := uint32(1) << ((phase + 1) & 1)
	// The generation slice is carried through the loop and stored back once:
	// an outbox-grained push, not a per-message one.
	g := arena.gens[phase%3]
	// Broadcast queues one payload slice on every port; records are views,
	// so the bytes go into the arena once and the ports share the offset.
	var prev []byte
	var prevOff uint32
	for _, m := range outbox {
		rec := slotRec{ln: 1} // present but empty (Send canonicalized it to nil)
		if n := len(m.payload); n > 0 {
			if len(prev) == n && &prev[0] == &m.payload[0] {
				rec.off = prevOff
			} else {
				rec.off = uint32(len(g))
				g = append(g, m.payload...)
				prev, prevOff = m.payload, rec.off
			}
			rec.ln = uint32(n) + 1
		}
		recs[t.destSlot[base+int32(m.port)]] = rec
		if mk := &marks[nbrs[m.port]]; mk.Load()&mail == 0 {
			mk.Or(mail)
		}
		msgs++
		b := len(m.payload) * 8
		bitsSum += int64(b)
		if b > maxB {
			maxB = b
		}
		if hist != nil {
			hist.observe(len(m.payload))
		}
	}
	arena.gens[phase%3] = g
	ok = int64(len(g)) <= slotPayloadLimit
	return
}
