package congest

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"congestds/internal/graph"
	"congestds/internal/testmem"
)

// echoStep broadcasts a round-stamped payload every round and folds its
// inbox order-sensitively — the broadcast-and-fold pattern of the paper's
// Part I/II phases, used by most stepped-engine tests below. Each node's
// accumulator is its out entry, so the program holds no other per-node
// state; Init resets it, so one value may serve several runs.
type echoStep struct {
	out    []int64
	rounds int
}

func (s *echoStep) Init(nd *Node) bool {
	acc := &s.out[nd.V()]
	*acc = nd.ID()
	nd.Broadcast(AppendVarint(nd.PayloadBuf(4), *acc&0x3fff))
	return false
}

func (s *echoStep) Step(nd *Node, round int, in []Incoming) bool {
	acc := &s.out[nd.V()]
	for i, msg := range in {
		v, _ := Varint(msg.Payload, 0)
		*acc = *acc*31 + v*int64(i+1)
	}
	if round+1 >= s.rounds {
		return true
	}
	nd.Broadcast(AppendVarint(nd.PayloadBuf(4), *acc&0x3fff))
	return false
}

// TestRunSteppedAcrossEngines pins that RunStepped produces identical
// outputs and metrics on every engine: natively on the stepped engine,
// through the blocking adapter elsewhere.
func TestRunSteppedAcrossEngines(t *testing.T) {
	g := graph.GNPConnected(80, 0.08, 17)
	type obs struct {
		out []int64
		m   Metrics
	}
	run := func(eng Engine) obs {
		out := make([]int64, g.N())
		m, err := NewNetwork(g, Config{Engine: eng}).RunStepped(&echoStep{out: out, rounds: 7})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		return obs{out: out, m: m}
	}
	ref := run(EngineGoroutine)
	if ref.m.Rounds != 7 {
		t.Fatalf("reference rounds=%d, want 7", ref.m.Rounds)
	}
	for _, eng := range Engines() {
		got := run(eng)
		if got.m != ref.m {
			t.Errorf("%v metrics %+v != reference %+v", eng, got.m, ref.m)
		}
		for v := range got.out {
			if got.out[v] != ref.out[v] {
				t.Fatalf("%v node %d: %d != reference %d", eng, v, got.out[v], ref.out[v])
			}
		}
	}
}

// TestSteppedSyncRejected: a StepProgram calling Sync must abort the run
// with an error instead of deadlocking the worker pool.
func TestSteppedSyncRejected(t *testing.T) {
	g := graph.Path(4)
	_, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(&syncCaller{})
	if err == nil || !strings.Contains(err.Error(), "must not call Sync") {
		t.Fatalf("err=%v, want Sync rejection", err)
	}
}

type syncCaller struct{}

func (s *syncCaller) Init(nd *Node) bool { nd.Sync(); return true }
func (s *syncCaller) Step(nd *Node, round int, in []Incoming) bool {
	return true
}

// TestSteppedErrors pins the sentinel errors on the native stepped engine.
func TestSteppedErrors(t *testing.T) {
	g := graph.GNPConnected(24, 0.2, 13)
	t.Run("bandwidth", func(t *testing.T) {
		net := NewNetwork(g, Config{BandwidthFactor: 1, Engine: EngineStepped})
		_, err := net.RunStepped(&bigSender{})
		if !errors.Is(err, ErrBandwidth) {
			t.Errorf("err=%v, want ErrBandwidth", err)
		}
	})
	t.Run("max-rounds", func(t *testing.T) {
		net := NewNetwork(g, Config{MaxRounds: 8, Engine: EngineStepped})
		m, err := net.RunStepped(&forever{})
		if !errors.Is(err, ErrMaxRounds) {
			t.Errorf("err=%v, want ErrMaxRounds", err)
		}
		// A failed run still reports how far it got: 9 deliveries were
		// performed, the 9th being the one that exceeded MaxRounds=8 —
		// identical on the blocking engines (TestSteppedMaxRoundsSideEffects
		// and the conformance suite's TestFailureMetricsConformance).
		if m.Rounds != 9 {
			t.Errorf("failed run reported Rounds=%d, want 9 (MaxRounds exceeded on the 9th delivery)", m.Rounds)
		}
	})
	t.Run("program-panic", func(t *testing.T) {
		net := NewNetwork(g, Config{Engine: EngineStepped})
		_, err := net.RunStepped(&panicker{})
		if err == nil || !strings.Contains(err.Error(), "deliberate") {
			t.Errorf("panic did not surface: %v", err)
		}
	})
}

type bigSender struct{}

func (s *bigSender) Init(nd *Node) bool { nd.Broadcast(make([]byte, 64)); return false }
func (s *bigSender) Step(nd *Node, round int, in []Incoming) bool {
	return true
}

type forever struct{}

func (s *forever) Init(nd *Node) bool                           { return false }
func (s *forever) Step(nd *Node, round int, in []Incoming) bool { return false }

type panicker struct{}

func (s *panicker) Init(nd *Node) bool { return false }
func (s *panicker) Step(nd *Node, round int, in []Incoming) bool {
	if nd.V() == 7 {
		panic("deliberate")
	}
	return round >= 3
}

// TestSteppedMaxRoundsSideEffects pins the failure contract of the native
// stepped engine against the blocking reference: same number of completed
// steps per node, same sent-message metrics.
func TestSteppedMaxRoundsSideEffects(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func(eng Engine) ([]int64, Metrics) {
		completed := make([]int64, g.N())
		m, err := NewNetwork(g, Config{MaxRounds: 5, Engine: eng}).RunStepped(
			&countingForever{completed: completed})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("%v: err=%v, want ErrMaxRounds", eng, err)
		}
		return completed, m
	}
	refC, refM := run(EngineGoroutine)
	if refM.Rounds == 0 {
		t.Errorf("failed reference run dropped Rounds (got 0, want the rounds delivered before the failure)")
	}
	for _, eng := range Engines() {
		gotC, gotM := run(eng)
		if gotM.Rounds != refM.Rounds || gotM.Messages != refM.Messages || gotM.Bits != refM.Bits {
			t.Errorf("%v: failure metrics (%d,%d,%d) != reference (%d,%d,%d)",
				eng, gotM.Rounds, gotM.Messages, gotM.Bits, refM.Rounds, refM.Messages, refM.Bits)
		}
		for v := range gotC {
			if gotC[v] != refC[v] {
				t.Errorf("%v: node %d completed %d steps, reference %d", eng, v, gotC[v], refC[v])
			}
		}
	}
}

type countingForever struct{ completed []int64 }

func (s *countingForever) Init(nd *Node) bool { nd.Broadcast([]byte{1}); return false }
func (s *countingForever) Step(nd *Node, round int, in []Incoming) bool {
	s.completed[nd.V()]++
	nd.Broadcast([]byte{1})
	return false
}

// TestSteppedWorkerPartition sweeps GOMAXPROCS against awkward node counts
// (regression: with p not dividing n, a trailing worker's range once went
// negative and runStepped panicked on any multi-core machine).
func TestSteppedWorkerPartition(t *testing.T) {
	for procs := 1; procs <= 9; procs++ {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 2, 3, 5, 7, 9, 16} {
			g := graph.Path(n)
			out := make([]int64, n)
			m, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(&echoStep{out: out, rounds: 3})
			if err != nil {
				t.Errorf("p=%d n=%d: %v", procs, n, err)
			} else if m.Rounds != 3 {
				t.Errorf("p=%d n=%d: rounds=%d, want 3", procs, n, m.Rounds)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSteppedEmptyGraph: the stepped engine must handle n=0 cleanly.
func TestSteppedEmptyGraph(t *testing.T) {
	g, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(
		&forever{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 || m.Messages != 0 {
		t.Errorf("empty graph metrics: %+v", m)
	}
}

// arenaAliasStep pins the arena recycling contract: a payload delivered in
// round r must not be aliased (overwritten) by any round r+1 send. Each
// node retains its first inbox payload together with a copy, lets every
// node complete one more full round of arena sends, and then compares.
type arenaAliasStep struct {
	rounds int
	size   int
	nodes  []arenaAliasNode
	fail   func(string)
}

// arenaAliasNode is one node's retained payload.
type arenaAliasNode struct {
	retained []byte // the delivered slice, held one round past the contract
	snapshot []byte // its contents at delivery time
}

func (s *arenaAliasStep) send(nd *Node, r int) {
	buf := nd.PayloadBuf(s.size)[:s.size]
	for i := range buf {
		buf[i] = byte(nd.V() + i + r)
	}
	nd.Broadcast(buf)
}

func (s *arenaAliasStep) Init(nd *Node) bool {
	s.send(nd, 0)
	return false
}

func (s *arenaAliasStep) Step(nd *Node, round int, in []Incoming) bool {
	a := &s.nodes[nd.V()]
	if a.retained != nil {
		// The sends of round `round` (every node's, including ours below)
		// come from a different arena generation than the payload delivered
		// in round round-1, so the retained bytes must be intact.
		if !bytes.Equal(a.retained, a.snapshot) {
			s.fail(fmt.Sprintf("node %d: payload delivered in round %d was aliased by round %d sends",
				nd.V(), round-1, round))
		}
		a.retained = nil
	}
	if len(in) > 0 && in[0].Payload != nil {
		a.retained = in[0].Payload
		a.snapshot = append([]byte(nil), in[0].Payload...)
	}
	if round+1 >= s.rounds {
		return true
	}
	s.send(nd, round+1)
	return false
}

// TestSteppedArenaNoAliasing runs the retention probe on a graph large
// enough to force arena block growth, under all engines (the fallback path
// allocates fresh buffers, so it trivially holds there; the stepped engine
// is the one under test). The test is -race-clean: retained payloads are
// only read, and the engine guarantees no concurrent writer for one round.
func TestSteppedArenaNoAliasing(t *testing.T) {
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			g := graph.Torus(20, 20)
			var failure string
			fail := func(msg string) {
				if failure == "" {
					failure = msg
				}
			}
			_, err := NewNetwork(g, Config{Engine: eng}).RunStepped(&arenaAliasStep{
				rounds: 12, size: 8, nodes: make([]arenaAliasNode, g.N()), fail: fail,
			})
			if err != nil {
				t.Fatal(err)
			}
			if failure != "" {
				t.Fatal(failure)
			}
		})
	}
}

// TestArenaGrowthKeepsOldBlocks: allocations that outgrow the arena's
// block must not invalidate payloads already handed out from it.
func TestArenaGrowthKeepsOldBlocks(t *testing.T) {
	var a payloadArena
	first := a.alloc(16)
	first = append(first, 1, 2, 3)
	// Force many block replacements within the same round.
	for i := 0; i < 64; i++ {
		b := a.alloc(4096)
		_ = append(b, byte(i))
	}
	if len(first) != 3 || first[0] != 1 || first[2] != 3 {
		t.Fatalf("early allocation corrupted by block growth: %v", first)
	}
	// Appending beyond capacity must fall out of the arena, not clobber it.
	small := a.alloc(2)
	small = append(small, 9, 9, 9, 9)
	next := a.alloc(2)
	next = append(next, 7, 7)
	if small[2] != 9 || next[0] != 7 {
		t.Fatalf("overflow append clobbered the arena: %v %v", small, next)
	}
	// reset recycles the block in place: same backing, zero length.
	a.reset()
	if len(a.block) != 0 || cap(a.block) == 0 {
		t.Fatalf("reset did not truncate in place: len=%d cap=%d", len(a.block), cap(a.block))
	}
}

// push copies pl into the phase's generation and returns its offset: the
// one-payload form of the engine's batched deposit (depositOutboxPacked).
func (a *slotArena) push(phase int, pl []byte) uint32 {
	g := a.gens[phase%3]
	off := len(g)
	a.gens[phase%3] = append(g, pl...)
	return uint32(off)
}

// TestSlotArenaGenerations pins the packed-record byte lifetime: bytes
// pushed at phase k are the delivered view at phase k+1, survive phase k+2
// untouched (the grace round), and are recycled by the reset at phase k+3.
func TestSlotArenaGenerations(t *testing.T) {
	var a slotArena
	payload := []byte{10, 20, 30}
	a.reset(0)
	off := a.push(0, payload)
	if off != 0 {
		t.Fatalf("first push offset=%d, want 0", off)
	}
	view := a.delivered(1)[off : off+3]
	if !bytes.Equal(view, payload) {
		t.Fatalf("delivered(1) = %v, want %v", view, payload)
	}
	// Phases 1 and 2 write other generations; the view must stay intact.
	a.reset(1)
	a.push(1, []byte{91})
	a.reset(2)
	a.push(2, []byte{92})
	if !bytes.Equal(view, payload) {
		t.Fatalf("grace-round view corrupted: %v", view)
	}
	// Phase 3 recycles generation 0: the slot is rewritten in place.
	a.reset(3)
	a.push(3, []byte{1, 2, 3})
	if bytes.Equal(view, payload) {
		t.Fatalf("phase-3 push did not recycle generation 0 (view still %v)", view)
	}
	// Offsets keep accumulating within one phase.
	if off := a.push(3, []byte{4}); off != 3 {
		t.Fatalf("second push offset=%d, want 3", off)
	}
}

// TestSlotRecEncoding pins the 4-byte record values through real deposits
// and the decode collect uses: an absent slot is 0, an empty message is 1
// and writes no arena bytes, and a payload's record is 2 + the offset of
// its uvarint(len)-prefixed arena entry — a ≥128-byte payload takes a
// 2-byte prefix, and a Broadcast's ports share one entry. The deposits'
// tally counts every message, shared entry or not, by its payload bits.
func TestSlotRecEncoding(t *testing.T) {
	g := graph.Star(4) // centre 0 on ports 0..2 to leaves 1..3
	net := NewNetwork(g, Config{})
	topo := net.topology()
	recs := make([]slotRec, len(topo.destSlot))
	var arena slotArena
	arena.reset(0)
	marks := make([]atomic.Uint32, g.N())
	var traffic tally
	deposit := func(v int, out ...outMsg) {
		t.Helper()
		before := traffic.msgs
		ok := topo.depositOutboxPacked(v, out, recs, &arena, 0, &traffic, g.Neighbors(v), marks)
		if m := traffic.msgs - before; m != int64(len(out)) || !ok {
			t.Fatalf("node %d deposit counted %d messages (ok %v), want %d and ok", v, m, ok, len(out))
		}
	}
	// slot is the record of out-edge (v, port), i.e. the receiver's slot.
	slot := func(v, port int) slotRec { return recs[topo.destSlot[topo.inOff[v]+int32(port)]] }

	// Leaf 1 sends an empty message: record 1, no arena bytes.
	deposit(1, outMsg{port: 0})
	if got := slot(1, 0); got != 1 {
		t.Errorf("empty-message record = %d, want 1", got)
	}
	if n := len(arena.gens[0]); n != 0 {
		t.Errorf("empty message wrote %d arena bytes, want 0", n)
	}
	// Leaf 2 sends 200 bytes: the entry at offset 0 is the 2-byte uvarint
	// prefix 0xC8 0x01 followed by the payload.
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte(i)
	}
	deposit(2, outMsg{port: 0, payload: long})
	if got := slot(2, 0); got != 2 {
		t.Errorf("first entry's record = %d, want 2 (offset 0)", got)
	}
	if g := arena.gens[0]; len(g) != 202 || g[0] != 0xC8 || g[1] != 0x01 {
		t.Fatalf("200-byte entry: len %d, prefix % x, want len 202, prefix c8 01", len(g), g[:min(2, len(g))])
	}
	if pl := slot(2, 0).payload(arena.delivered(1)); !bytes.Equal(pl, long) || cap(pl) != len(long) {
		t.Errorf("200-byte payload did not round-trip: len %d cap %d", len(pl), cap(pl))
	}
	// Phase-0 deposits mark their receiver with the phase-1 mail bit only.
	for v, want := range []uint32{2, 0, 0, 0} {
		if got := marks[v].Load(); got != want {
			t.Errorf("node %d mail bits = %b, want %b", v, got, want)
		}
	}
	// The centre broadcasts 3 bytes: one entry (1-byte prefix) right after
	// the first, and three equal records over it.
	bc := []byte{7, 8, 9}
	deposit(0, outMsg{port: 0, payload: bc}, outMsg{port: 1, payload: bc}, outMsg{port: 2, payload: bc})
	for p := 0; p < 3; p++ {
		if got := slot(0, p); got != 202+2 {
			t.Errorf("broadcast port %d record = %d, want %d", p, got, 202+2)
		}
	}
	if n := len(arena.gens[0]); n != 202+1+3 {
		t.Errorf("arena holds %d bytes after the broadcast, want %d (one shared entry)", n, 202+1+3)
	}
	if pl := slot(0, 1).payload(arena.delivered(1)); !bytes.Equal(pl, bc) {
		t.Errorf("broadcast payload %v, want %v", pl, bc)
	}
	// Leaf 3 sent nothing: its out-slot (the centre's port-2 slot) is absent.
	if got := slot(3, 0); got != 0 {
		t.Errorf("absent slot = %d, want 0", got)
	}
	// One empty message, one of 1600 bits and three of 24 bits.
	want := tally{msgs: 5, bits: 1600 + 3*24, maxBits: 1600}
	want.hist[0], want.hist[5], want.hist[11] = 1, 3, 1
	if traffic != want {
		t.Errorf("deposit tally %+v, want %+v", traffic, want)
	}
}

// TestSlotArenaOverflowFails: a worker pushing past the 32-bit offset
// range must abort the run with a loud error, not wrap silently. The real
// limit is 4 GiB, so the test lowers it instead of allocating that much,
// and drives the failure end to end under a bandwidth budget wide enough
// for the 64-byte payloads.
func TestSlotArenaOverflowFails(t *testing.T) {
	prev := slotPayloadLimit
	slotPayloadLimit = 64
	defer func() { slotPayloadLimit = prev }()
	g := graph.Cycle(6)
	net := NewNetwork(g, Config{BandwidthFactor: 1 << 12, Engine: EngineStepped})
	_, err := net.RunStepped(&bigSender{})
	if err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("err=%v, want the slot-arena 32-bit overflow error", err)
	}
}

// echoBackStep sends per-port payloads with sizes scripted by a fuzz input
// and records a digest of everything received; the fuzz harness compares
// digests between the stepped engine and the goroutine reference. A
// scripted byte of skipMarker suppresses the send entirely, so the fuzzer
// steers all three record classes: absent (no send, record 0),
// present-but-empty (size 0, record 1) and payload-carrying (record ≥ 2).
type echoBackStep struct {
	digest []int64
	sizes  []byte
	rounds int
	budget int
}

// skipMarker is the scripted size byte meaning "send nothing on this port".
const skipMarker = 253

func (s *echoBackStep) sizeFor(nd *Node, r, p int) (size int, skip bool) {
	if len(s.sizes) == 0 {
		return 0, false
	}
	raw := int(s.sizes[(nd.V()*31+r*7+p)%len(s.sizes)])
	if raw == skipMarker {
		return 0, true
	}
	return raw % (s.budget + 1), false
}

func (s *echoBackStep) send(nd *Node, r int) {
	for p := 0; p < nd.Degree(); p++ {
		size, skip := s.sizeFor(nd, r, p)
		if skip {
			continue // the receiving slot stays absent this round
		}
		buf := nd.PayloadBuf(size)[:size]
		for i := range buf {
			buf[i] = byte(nd.V() + i + r + p)
		}
		nd.Send(p, buf)
	}
}

func (s *echoBackStep) Init(nd *Node) bool {
	s.send(nd, 0)
	return false
}

func (s *echoBackStep) Step(nd *Node, round int, in []Incoming) bool {
	v := nd.V()
	for _, msg := range in {
		s.digest[v] = s.digest[v]*131 + int64(msg.Port) + int64(len(msg.Payload))*7
		for _, b := range msg.Payload {
			s.digest[v] = s.digest[v]*31 + int64(b)
		}
	}
	if round+1 >= s.rounds {
		return true
	}
	s.send(nd, round+1)
	return false
}

// FuzzSteppedArenaPayloads drives scripted payload sizes — including
// zero-length and exact-budget payloads — through the stepped engine's
// arena and differentially compares every delivered byte against the
// goroutine reference engine.
func FuzzSteppedArenaPayloads(f *testing.F) {
	f.Add([]byte{}, false)                          // all empty payloads
	f.Add([]byte{0, 0, 0, 0}, false)                // explicit zero-length sizes
	f.Add([]byte{255, 255, 255, 255}, false)        // clamped to max-bandwidth payloads
	f.Add([]byte{0, 255, 1, 254, 2, 128}, false)    // mixed extremes
	f.Add([]byte{16, 3, 16, 3, 16, 3, 0, 1}, false) // budget-ish alternation
	// Alternate absent (skipMarker), present-but-empty (0) and tiny
	// payloads: every slotRec value class (0 / 1 / entry offset+2) flips
	// between rounds on the same edges.
	f.Add([]byte{skipMarker, 0, skipMarker, 1, 0, skipMarker, 2, 0}, false)
	f.Add([]byte{skipMarker, skipMarker, skipMarker}, false) // all slots absent
	// Wide budget: sizes reach 128 bytes and up, so arena entries carry a
	// 2-byte uvarint length prefix next to 1-byte ones.
	f.Add([]byte{128, 127, 192, 0, skipMarker, 129, 255, 1}, true)
	f.Add([]byte{192, 192, 192, 192}, true)              // exact wide budget
	f.Add([]byte{130, skipMarker, 0, 140, 3, 150}, true) // long, absent, empty, short
	g := graph.GNPConnected(40, 0.12, 23)
	// BandwidthFactor 256 lifts the 40-node budget from 12 to 192 bytes.
	wideCfg := Config{BandwidthFactor: 256}
	if b := NewNetwork(g, wideCfg).BandwidthBits() / 8; b < 128 {
		f.Fatalf("wide budget is %d bytes, want ≥ 128 for 2-byte prefixes", b)
	}
	f.Fuzz(func(t *testing.T, sizes []byte, wide bool) {
		var cfg Config
		if wide {
			cfg = wideCfg
		}
		budget := NewNetwork(g, cfg).BandwidthBits() / 8
		run := func(eng Engine) []int64 {
			digest := make([]int64, g.N())
			cfg.Engine = eng
			_, err := NewNetwork(g, cfg).RunStepped(
				&echoBackStep{digest: digest, sizes: sizes, rounds: 6, budget: budget})
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			return digest
		}
		ref := run(EngineGoroutine)
		got := run(EngineStepped)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("node %d digest: stepped %d != goroutine %d (sizes=%v)", v, got[v], ref[v], sizes)
			}
		}
	})
}

// TestSlotRecFootprint pins the per-edge delivery state: one record per
// directed edge per round parity, 4 bytes each.
func TestSlotRecFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(slotRec(0)); sz != 4 {
		t.Errorf("sizeof(slotRec) = %d B, want 4", sz)
	}
}

// TestNodeFootprint pins the goroutine engine's per-node state: a Node
// keeps only what lives across rounds, and its per-call I/O is one pointer.
// The stepped engine keeps no per-node Node (TestSteppedHeapBytesPerNode).
func TestNodeFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 48 {
		t.Errorf("sizeof(Node) = %d B, want ≤ 48", sz)
	}
}

// steppedArrayBytes is the size of the stepped engine's arrays for a run
// on n nodes and slots directed edges: per node the alive entry (index and
// sleep round), the mail word and the inOff entry; per directed edge the
// two slot records and the destSlot entry.
func steppedArrayBytes(n, slots uint64) (total, perNode, perSlot uint64) {
	perNode = uint64(unsafe.Sizeof(liveNode{}) + unsafe.Sizeof(atomic.Uint32{}) + unsafe.Sizeof(int32(0)))
	perSlot = uint64(2*unsafe.Sizeof(slotRec(0)) + unsafe.Sizeof(int32(0)))
	return perNode*n + perSlot*slots, perNode, perSlot
}

// checkSteppedAlloc counts MemStats.TotalAlloc around run, at GOMAXPROCS 2
// (the pool's size sets the number of chunks and workers, so the slack
// does not depend on the machine), and fails t when it exceeds the
// engine's arrays for g plus slack. The slack covers the chunks, the
// workers and the page rounding of large arrays. run builds the Network
// and runs a program that sends nothing, so the payload arenas stay empty
// and everything counted is the engine's.
func checkSteppedAlloc(t *testing.T, g *graph.Graph, slack uint64, run func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	n, slots := uint64(g.N()), uint64(2*g.M())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	arrays, perNode, perSlot := steppedArrayBytes(n, slots)
	t.Logf("one run on %d nodes allocated %d B: arrays %d B (%d B/node, %d B/slot), %d B beyond",
		n, got, arrays, perNode, perSlot, int64(got)-int64(arrays))
	if got > arrays+slack {
		t.Errorf("one run allocated %d B, more than its arrays' %d B + %d B slack", got, arrays, slack)
	}
}

// TestSteppedHeapBytesPerNode bounds what one stepped run allocates by the
// sizes of the engine's arrays, computed from their lengths
// (steppedArrayBytes: 16 B per node, 12 B per directed edge). The program
// is one silent value allocated before the count; the engine keeps no
// per-node program value. Each chunk's alive array is a whole number of
// pages here, so the 64 KiB slack is the chunks and workers alone; one
// more byte per node, 128 KiB, does not fit in it.
func TestSteppedHeapBytesPerNode(t *testing.T) {
	g := graph.Torus(512, 256) // 2¹⁷ nodes, 2¹⁹ directed edges
	prog := &silentStep{rounds: 4}
	net := NewNetwork(g, Config{Engine: EngineStepped})
	checkSteppedAlloc(t, g, 64<<10, func() {
		m, err := net.RunStepped(prog)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rounds != 4 {
			t.Fatalf("rounds = %d, want 4", m.Rounds)
		}
	})
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled = false

// TestSteppedMillionNodeTorus is the bounded-memory demonstration the
// stepped engine exists for: a 16-round broadcast-and-fold over a
// 1000×1000 torus — one million nodes, four million directed edges — which
// the goroutine-backed engines cannot attempt without gigabytes of stacks.
// Peak RSS must stay under 700 MiB (it was < 1 GiB before the packed slot
// records; run alone under GOMEMLIMIT=700MiB on a 2-core Xeon it read
// 163.4–166.1 MiB with one program value per run, 228–233 MiB with a
// per-node program value, 268–274 MiB with a per-node Node as well); the
// CI memory smoke job additionally runs it under an external GOMEMLIMIT.
func TestSteppedMillionNodeTorus(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: million-node run takes several seconds")
	}
	if raceEnabled {
		t.Skip("race detector multiplies the 1M-node footprint several-fold")
	}
	// Bound the GC's laziness so peak RSS reflects live engine memory, not
	// deferred collection headroom; the engine's live footprint is what the
	// RSS criterion is about. The packed slot records brought the live floor
	// from ~486 MiB to ~392 MiB, so 450 MiB leaves real headroom while
	// locking the reduction in (the [][]byte layout cannot finish under it
	// without thrashing the GC).
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(450 << 20))
	g := graph.Torus(1000, 1000)
	out := make([]int64, g.N())
	net := NewNetwork(g, Config{Engine: EngineStepped})
	m, err := net.RunStepped(&echoStep{out: out, rounds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 16 {
		t.Errorf("rounds=%d, want 16", m.Rounds)
	}
	if want := int64(16 * 4 * g.N()); m.Messages != want {
		t.Errorf("messages=%d, want %d", m.Messages, want)
	}
	// Spot-check determinism against a small reference: the torus is
	// vertex-transitive only in topology, not IDs, so just re-run and
	// compare a sample of nodes.
	out2 := make([]int64, g.N())
	if _, err := net.RunStepped(&echoStep{out: out2, rounds: 16}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 999, 499999, 999999} {
		if out[v] != out2[v] {
			t.Errorf("node %d: run1=%d run2=%d (nondeterministic)", v, out[v], out2[v])
		}
	}
	hwm := testmem.ReadVmHWM()
	t.Logf("peak RSS after 1M-node run: %.1f MiB", float64(hwm)/(1<<20))
	if hwm > 0 && hwm >= 700<<20 {
		t.Errorf("peak RSS %d bytes >= 700 MiB bound", hwm)
	}
	runtime.KeepAlive(out)
}

// TestSteppedMillionNodeTorusMapped is the out-of-core variant of
// TestSteppedMillionNodeTorus: the same million-node 16-round
// broadcast-and-fold, but with the topology served from a memory-mapped
// .csrg file instead of heap CSR slices. The mapped pages are file-backed
// — shareable across processes, evictable under pressure, and invisible
// to the Go heap. The test checks two things: the peak RSS stays under
// 470 MiB (run alone, as the CI memsmoke job runs it), and a silent run's
// MemStats.TotalAlloc around NewNetwork + RunStepped on the mapped graph
// stays within the engine's arrays (steppedArrayBytes) plus 256 KiB, which
// the graph's 32 MB of offsets, targets and IDs would not fit in: the
// mapped graph is never copied onto the heap.
// Whether the mapped peak lands below the all-heap run's is an
// observation, not a requirement: run alone under GOMEMLIMIT=700MiB on a
// 2-core Xeon, the mapped run read 162.6–167.1 MiB against the all-heap
// run's 163.4–166.1 (223.2–225.3 against 228.2–232.4 with a per-node
// program value). Output equality against
// the heap-built graph is pinned by the conformance suite's
// cross-representation pass; here a checksum re-run pins determinism of
// the mapped run itself.
func TestSteppedMillionNodeTorusMapped(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: million-node run takes several seconds")
	}
	if raceEnabled {
		t.Skip("race detector multiplies the 1M-node footprint several-fold")
	}
	// The RSS assertion only means something if this test dominates the
	// process high-water mark: when the all-heap torus test ran first in
	// the same process, VmHWM already carries its peak.
	startHWM := testmem.ReadVmHWM()
	const bound = 470 << 20
	// Tighter in-test clamp than the all-heap run's 450 MiB: the graph no
	// longer costs heap, only the builder spike during file generation and
	// the engine arenas do.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(400 << 20))

	path := filepath.Join(t.TempDir(), "torus1m.csrg")
	func() {
		// Build and serialize in a scope of their own so the heap graph
		// and the builder's edge map are dead before the engine runs.
		g := graph.Torus(1000, 1000)
		if err := g.WriteCSRGFile(path); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()

	mg, err := graph.Mmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	if mg.N() != 1000*1000 || mg.M() != 2*1000*1000 {
		t.Fatalf("mapped torus has n=%d m=%d", mg.N(), mg.M())
	}

	out := make([]int64, mg.N())
	net := NewNetwork(mg.Graph, Config{Engine: EngineStepped})
	m, err := net.RunStepped(&echoStep{out: out, rounds: 16})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 16 {
		t.Errorf("rounds=%d, want 16", m.Rounds)
	}
	if want := int64(16 * 4 * mg.N()); m.Messages != want {
		t.Errorf("messages=%d, want %d", m.Messages, want)
	}
	out2 := make([]int64, mg.N())
	if _, err := net.RunStepped(&echoStep{out: out2, rounds: 16}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 999, 499999, 999999} {
		if out[v] != out2[v] {
			t.Errorf("node %d: run1=%d run2=%d (nondeterministic)", v, out[v], out2[v])
		}
	}

	hwm := testmem.ReadVmHWM()
	t.Logf("peak RSS after mapped 1M-node run: %.1f MiB (at test start: %.1f MiB)",
		float64(hwm)/(1<<20), float64(startHWM)/(1<<20))
	if startHWM >= bound/2 {
		t.Logf("skipping RSS assertion: an earlier test in this process already peaked at %.1f MiB", float64(startHWM)/(1<<20))
	} else if hwm > 0 && hwm >= bound {
		t.Errorf("peak RSS %d bytes >= %d MiB bound", hwm, bound>>20)
	}
	runtime.KeepAlive(out)

	// The slack adds the page rounding of the 16 chunks' alive arrays,
	// up to 8 KiB each; the run measured 164 KiB beyond its arrays.
	checkSteppedAlloc(t, mg.Graph, 256<<10, func() {
		if _, err := NewNetwork(mg.Graph, Config{Engine: EngineStepped}).RunStepped(&silentStep{rounds: 4}); err != nil {
			t.Fatal(err)
		}
	})
}
