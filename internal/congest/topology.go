package congest

import (
	"encoding/binary"
	"sync/atomic"
)

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

// buildTopology fills destSlot as a CSR transpose in O(n + m). Walking u
// in ascending order visits the entries naming v in ascending u, which is
// v's port order, so the k-th visit of v is v's port k. inOff[v+1] starts
// at v's first slot and serves as v's fill cursor: after the walk it has
// advanced by deg(v) to v+1's first slot, its final value.
func buildTopology(net *Network) *topology {
	g := net.g
	n := g.N()
	t := &topology{inOff: make([]int32, n+1), destSlot: make([]int32, 2*g.M())}
	for v := 1; v < n; v++ {
		t.inOff[v+1] = t.inOff[v] + int32(g.Degree(v-1))
	}
	var first int32 // u's first slot
	for u := 0; u < n; u++ {
		for q, v := range g.Neighbors(u) {
			// u sits on v's next port; v sits on u's port q.
			next := &t.inOff[v+1]
			t.destSlot[*next] = first + int32(q)
			*next++
		}
		first += int32(g.Degree(u))
	}
	return t
}

// topology returns the Network's cached CSR slot layout, building it on
// first use.
func (net *Network) topology() *topology {
	net.topoOnce.Do(func() { net.topo = buildTopology(net) })
	return net.topo
}

// depositOutboxPacked is the stepped engine's deposit: each non-empty
// payload becomes one length-prefixed entry in the depositing chunk's
// slotArena and each slot gets a 4-byte slotRec naming the entry's start
// (or the absent / present-but-empty values). Every message is counted in
// traffic, through tally.count like the goroutine engine's deposit. ok is
// false when the arena outgrew the records' 32-bit range;
// the caller must fail the run (records past the limit hold wrapped
// values, but the failure stops the round from being delivered, so no
// reader sees them).
//
// Each receiver (nbrs[port], v's neighbours) gets the next phase's mail bit
// in marks; the plain load first keeps a receiver that already has mail
// from paying a second atomic write.
func (t *topology) depositOutboxPacked(v int, outbox []outMsg, recs []slotRec, arena *slotArena, phase int, traffic *tally, nbrs []int32, marks []atomic.Uint32) (ok bool) {
	base := t.inOff[v]
	mail := uint32(1) << ((phase + 1) & 1)
	// The generation slice is carried through the loop and stored back once:
	// an outbox-grained push, not a per-message one.
	g := arena.gens[phase%3]
	// Broadcast queues one payload slice on every port; records are views,
	// so the entry goes into the arena once and the ports share the record.
	var prev []byte
	var prevRec slotRec
	for _, m := range outbox {
		rec := slotRec(1) // present but empty (Send canonicalized it to nil)
		if n := len(m.payload); n > 0 {
			if len(prev) == n && &prev[0] == &m.payload[0] {
				rec = prevRec
			} else {
				rec = slotRec(len(g) + 2)
				g = binary.AppendUvarint(g, uint64(n))
				g = append(g, m.payload...)
				prev, prevRec = m.payload, rec
			}
		}
		recs[t.destSlot[base+int32(m.port)]] = rec
		if mk := &marks[nbrs[m.port]]; mk.Load()&mail == 0 {
			mk.Or(mail)
		}
		traffic.count(len(m.payload))
	}
	arena.gens[phase%3] = g
	return int64(len(g)) <= slotPayloadLimit
}
