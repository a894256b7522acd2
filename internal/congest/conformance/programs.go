package conformance

import (
	"math/bits"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The registered programs. Each exercises a different slice of engine
// behaviour: single-round exchange, long floods, order-sensitive folding,
// staggered termination, final sends without Sync, zero-length payloads,
// sparse per-port sends with replacement, silent rounds, and payloads at
// the exact bandwidth budget. Outputs serialize every host-visible result
// in node order so the harness can compare engines byte for byte.

// mask keeps order-sensitive accumulators within two varint bytes, so every
// program fits the CONGEST budget even on the smallest corpus graphs.
const mask = 0x3fff

func init() {
	Register(Case{Name: "id-exchange", Build: buildIDExchange, BuildStep: buildIDExchangeStep})
	Register(Case{Name: "flood-distance", Build: buildFloodDistance, BuildStep: buildFloodDistanceStep})
	Register(Case{Name: "mixer", Build: buildMixer, BuildStep: buildMixerStep})
	Register(Case{Name: "early-stop", Build: buildEarlyStop, BuildStep: buildEarlyStopStep})
	Register(Case{Name: "final-send", Build: buildFinalSend, BuildStep: buildFinalSendStep})
	Register(Case{Name: "empty-payload", Build: buildEmptyPayload, BuildStep: buildEmptyPayloadStep})
	Register(Case{Name: "port-pingpong", Build: buildPortPingpong, BuildStep: buildPortPingpongStep})
	Register(Case{Name: "silent-rounds", Build: buildSilentRounds, BuildStep: buildSilentRoundsStep})
	Register(Case{Name: "budget-edge", Build: buildBudgetEdge, BuildStep: buildBudgetEdgeStep})
	// Sleeping stepped variants (stepped.go) against blocking references
	// that run every round.
	Register(Case{Name: "flood-sleep", Build: buildFloodDistance, BuildStep: buildFloodSleepStep})
	Register(Case{Name: "round-clock", Build: buildRoundClock, BuildStep: buildRoundClockStep})
}

// buildIDExchange: one round; every node broadcasts its ID and records the
// (port, id) pairs it receives.
func buildIDExchange(g *graph.Graph) (congest.Program, func() []byte) {
	got := make([][]int64, g.N())
	prog := func(nd *congest.Node) {
		nd.Broadcast(congest.AppendVarint(nil, nd.ID()))
		in := nd.Sync()
		res := make([]int64, 0, 2*len(in))
		for _, msg := range in {
			id, _ := congest.Varint(msg.Payload, 0)
			res = append(res, int64(msg.Port), id)
		}
		got[nd.V()] = res
	}
	return prog, func() []byte {
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

// buildFloodDistance: the node with the smallest ID floods; every node
// records its hop distance (-1 if unreachable, exercising disconnected
// corpus graphs).
func buildFloodDistance(g *graph.Graph) (congest.Program, func() []byte) {
	dist := make([]int64, g.N())
	rounds := g.N()
	prog := func(nd *congest.Node) {
		my := int64(-1)
		if nd.ID() == 1 {
			my = 0
		}
		for r := 0; r < rounds; r++ {
			if my == int64(r) {
				nd.Broadcast([]byte{1})
			}
			in := nd.Sync()
			if my < 0 && len(in) > 0 {
				my = int64(r + 1)
			}
		}
		dist[nd.V()] = my
	}
	return prog, func() []byte {
		var buf []byte
		for _, d := range dist {
			buf = appendInt(buf, d)
		}
		return buf
	}
}

// mixerValue folds a mixer payload into the accumulator input: the decoded
// varint when the payload parses, a deterministic function of the raw bytes
// when it does not. Payload-corruption faults (chaos.FlipPayload /
// TruncatePayload) can hand the mixer arbitrary bytes, and the fold must
// stay a pure function of them so corrupted runs still diff byte-identical
// across engines.
func mixerValue(payload []byte) int64 {
	x, off := congest.Varint(payload, 0)
	if off < 0 {
		x = int64(len(payload)) + 1
		for _, b := range payload {
			x = x*257 + int64(b)
		}
	}
	return x
}

// buildMixer: five rounds of order-sensitive accumulation — any difference
// in inbox ordering or content between engines changes the result.
func buildMixer(g *graph.Graph) (congest.Program, func() []byte) {
	out := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		acc := nd.ID()
		for r := 0; r < 5; r++ {
			nd.Broadcast(congest.AppendVarint(nil, acc&mask))
			in := nd.Sync()
			for i, msg := range in {
				x := mixerValue(msg.Payload)
				acc = acc*31 + x*int64(i+1) + int64(msg.Port)
			}
		}
		out[nd.V()] = acc
	}
	return prog, func() []byte {
		var buf []byte
		for _, x := range out {
			buf = appendInt(buf, x)
		}
		return buf
	}
}

// buildEarlyStop: node v runs v%4+1 rounds then returns, so shards lose
// members at different times; each node records how many messages it saw in
// each round it was alive.
func buildEarlyStop(g *graph.Graph) (congest.Program, func() []byte) {
	seen := make([][]int64, g.N())
	prog := func(nd *congest.Node) {
		rounds := nd.V()%4 + 1
		for r := 0; r < rounds; r++ {
			nd.Broadcast(congest.AppendVarint(nil, int64(r)))
			in := nd.Sync()
			sum := int64(0)
			for _, msg := range in {
				x, _ := congest.Varint(msg.Payload, 0)
				sum += x + 1
			}
			seen[nd.V()] = append(seen[nd.V()], int64(len(in)), sum)
		}
	}
	return prog, func() []byte {
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

// buildFinalSend: nodes with an even ID send once and return without ever
// calling Sync (their outbox must still be delivered, the engines' finish
// semantics); odd nodes listen for one round.
func buildFinalSend(g *graph.Graph) (congest.Program, func() []byte) {
	heard := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		if nd.ID()%2 == 0 {
			for p := 0; p < nd.Degree(); p++ {
				nd.Send(p, congest.AppendVarint(nil, nd.ID()&mask))
			}
			return
		}
		in := nd.Sync()
		sum := int64(0)
		for _, msg := range in {
			x, _ := congest.Varint(msg.Payload, 0)
			sum += x + int64(msg.Port) + 1
		}
		heard[nd.V()] = sum
	}
	return prog, func() []byte {
		var buf []byte
		for _, x := range heard {
			buf = appendInt(buf, x)
		}
		return buf
	}
}

// buildEmptyPayload: zero-length messages every other round; receivers
// count messages and total payload length (which must be zero).
func buildEmptyPayload(g *graph.Graph) (congest.Program, func() []byte) {
	count := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		for r := 0; r < 4; r++ {
			if r%2 == 0 {
				nd.Broadcast([]byte{})
			}
			in := nd.Sync()
			for _, msg := range in {
				count[nd.V()] += 1 + int64(len(msg.Payload))*1000
			}
		}
	}
	return prog, func() []byte {
		var buf []byte
		for _, x := range count {
			buf = appendInt(buf, x)
		}
		return buf
	}
}

// buildPortPingpong: each node sends on a single rotating port and
// overwrites that send once (Send-replaces-same-port semantics), so most
// slots stay empty each round.
func buildPortPingpong(g *graph.Graph) (congest.Program, func() []byte) {
	out := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		acc := int64(0)
		for r := 0; r < 6; r++ {
			if d := nd.Degree(); d > 0 {
				p := r % d
				nd.Send(p, congest.AppendVarint(nil, int64(r)))
				nd.Send(p, congest.AppendVarint(nil, int64(r)+100)) // replaces
			}
			in := nd.Sync()
			for _, msg := range in {
				x, _ := congest.Varint(msg.Payload, 0)
				acc = acc*17 + x + int64(msg.Port)
			}
		}
		out[nd.V()] = acc
	}
	return prog, func() []byte {
		var buf []byte
		for _, x := range out {
			buf = appendInt(buf, x)
		}
		return buf
	}
}

// buildSilentRounds: rounds in which no node at all sends, interleaved with
// broadcast rounds — the engines must advance through message-free
// barriers identically.
func buildSilentRounds(g *graph.Graph) (congest.Program, func() []byte) {
	out := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		total := int64(0)
		for r := 0; r < 6; r++ {
			if r%3 == 0 {
				nd.Broadcast(congest.AppendVarint(nil, int64(r)))
			}
			in := nd.Sync()
			total = total*7 + int64(len(in)) + int64(nd.Round())
		}
		out[nd.V()] = total
	}
	return prog, func() []byte {
		var buf []byte
		for _, x := range out {
			buf = appendInt(buf, x)
		}
		return buf
	}
}

// clockRounds is how many rounds node v of the round-clock program runs.
func clockRounds(v int) int { return 4 + v%5 }

// buildRoundClock: no messages at all; node v runs clockRounds(v) rounds
// and folds the round counter and its (empty, barring a bug) inbox size
// into an accumulator, so every round a node lives is observable. Its
// sleeping port is driven by timers alone.
func buildRoundClock(g *graph.Graph) (congest.Program, func() []byte) {
	out := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		acc := nd.ID()
		for r := 0; r < clockRounds(nd.V()); r++ {
			in := nd.Sync()
			acc = acc*5 + int64(nd.Round()) + int64(len(in))*1000
		}
		out[nd.V()] = acc
	}
	return prog, outputInts(out)
}

// buildBudgetEdge: broadcast payloads of exactly the CONGEST budget (the
// default factor 16 gives 16·⌈log₂ n⌉ bits), probing the bandwidth check
// and MaxMsgBits accounting at the boundary.
func buildBudgetEdge(g *graph.Graph) (congest.Program, func() []byte) {
	n := g.N()
	logn := bits.Len(uint(n))
	if logn < 1 {
		logn = 1
	}
	budgetBytes := 16 * logn / 8
	sum := make([]int64, g.N())
	prog := func(nd *congest.Node) {
		payload := make([]byte, budgetBytes)
		for i := range payload {
			payload[i] = byte(nd.V() + i)
		}
		nd.Broadcast(payload)
		in := nd.Sync()
		for _, msg := range in {
			for _, b := range msg.Payload {
				sum[nd.V()] += int64(b)
			}
		}
	}
	return prog, func() []byte {
		var buf []byte
		for _, x := range sum {
			buf = appendInt(buf, x)
		}
		return buf
	}
}
