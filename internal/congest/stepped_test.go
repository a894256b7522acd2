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
// Part I/II phases, used by most stepped-engine tests below.
type echoStep struct {
	out    []int64
	rounds int
	acc    int64
}

func (s *echoStep) Init(nd *Node) bool {
	s.acc = nd.ID()
	nd.Broadcast(AppendVarint(nd.PayloadBuf(4), s.acc&0x3fff))
	return false
}

func (s *echoStep) Step(nd *Node, round int, in []Incoming) bool {
	for i, msg := range in {
		v, _ := Varint(msg.Payload, 0)
		s.acc = s.acc*31 + v*int64(i+1)
	}
	if round+1 >= s.rounds {
		s.out[nd.V()] = s.acc
		return true
	}
	nd.Broadcast(AppendVarint(nd.PayloadBuf(4), s.acc&0x3fff))
	return false
}

func echoFactory(out []int64, rounds int) StepFactory {
	return func(nd *Node) StepProgram { return &echoStep{out: out, rounds: rounds} }
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
		m, err := NewNetwork(g, Config{Engine: eng}).RunStepped(echoFactory(out, 7))
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
	factory := func(nd *Node) StepProgram { return &syncCaller{} }
	_, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(factory)
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
		_, err := net.RunStepped(func(nd *Node) StepProgram { return &bigSender{} })
		if !errors.Is(err, ErrBandwidth) {
			t.Errorf("err=%v, want ErrBandwidth", err)
		}
	})
	t.Run("max-rounds", func(t *testing.T) {
		net := NewNetwork(g, Config{MaxRounds: 8, Engine: EngineStepped})
		m, err := net.RunStepped(func(nd *Node) StepProgram { return &forever{} })
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
		_, err := net.RunStepped(func(nd *Node) StepProgram { return &panicker{} })
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
			func(nd *Node) StepProgram { return &countingForever{completed: completed} })
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
			m, err := NewNetwork(g, Config{Engine: EngineStepped}).RunStepped(echoFactory(out, 3))
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
		func(nd *Node) StepProgram { return &forever{} })
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
	rounds   int
	size     int
	retained []byte // the delivered slice, held one round past the contract
	snapshot []byte // its contents at delivery time
	fail     func(string)
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
	if s.retained != nil {
		// The sends of round `round` (every node's, including ours below)
		// come from a different arena generation than the payload delivered
		// in round round-1, so the retained bytes must be intact.
		if !bytes.Equal(s.retained, s.snapshot) {
			s.fail(fmt.Sprintf("node %d: payload delivered in round %d was aliased by round %d sends",
				nd.V(), round-1, round))
		}
		s.retained = nil
	}
	if len(in) > 0 && in[0].Payload != nil {
		s.retained = in[0].Payload
		s.snapshot = append([]byte(nil), in[0].Payload...)
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
			_, err := NewNetwork(g, Config{Engine: eng}).RunStepped(func(nd *Node) StepProgram {
				return &arenaAliasStep{rounds: 12, size: 8, fail: fail}
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

// TestSlotRecEncoding pins the tagged empty/absent encoding that replaces
// nil/empty-slice sentinels: a cleared record is absent,
// ln==1 is a present-but-empty message (delivered nil), ln==k+1 carries k
// bytes — exercised end to end through a deposit/collect round-trip.
func TestSlotRecEncoding(t *testing.T) {
	g := graph.Path(3) // node 1 has ports 0 (to node 0) and 1 (to node 2)
	net := NewNetwork(g, Config{})
	topo := net.topology()
	recs := make([]slotRec, len(topo.destSlot))
	var arena slotArena
	arena.reset(0)
	marks := make([]atomic.Uint32, g.N())
	// Node 0 sends 2 bytes to node 1; node 2 sends an empty message.
	m0, _, _, ok0 := topo.depositOutboxPacked(0, []outMsg{{port: 0, payload: []byte{7, 8}}}, recs, &arena, 0, nil, g.Neighbors(0), marks)
	m2, _, _, ok2 := topo.depositOutboxPacked(2, []outMsg{{port: 0, payload: nil}}, recs, &arena, 0, nil, g.Neighbors(2), marks)
	if m0 != 1 || m2 != 1 || !ok0 || !ok2 {
		t.Fatalf("deposit counted (%d,%d) messages (ok %v,%v), want (1,1) both ok", m0, m2, ok0, ok2)
	}
	// Phase-0 deposits mark their receiver with the phase-1 mail bit only.
	for v, want := range []uint32{0, 2, 0} {
		if got := marks[v].Load(); got != want {
			t.Errorf("node %d mail bits = %b, want %b", v, got, want)
		}
	}
	off, end := topo.inOff[1], topo.inOff[2]
	if got := recs[off].ln; got != 3 {
		t.Errorf("2-byte payload record ln=%d, want 3 (len+1)", got)
	}
	if got := recs[off+1]; got != (slotRec{ln: 1}) {
		t.Errorf("empty-message record = %+v, want {off:0 ln:1}", got)
	}
	if int(end-off) != 2 {
		t.Fatalf("node 1 has %d slots, want 2", end-off)
	}
	// Nothing was sent to node 0: its slot must be the absent zero record.
	if got := recs[topo.inOff[0]]; got != (slotRec{}) {
		t.Errorf("absent slot = %+v, want the zero record", got)
	}
	view := arena.delivered(1)
	if pl := view[recs[off].off : recs[off].off+recs[off].ln-1]; !bytes.Equal(pl, []byte{7, 8}) {
		t.Errorf("materialized payload %v, want [7 8]", pl)
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
	_, err := net.RunStepped(func(nd *Node) StepProgram { return &bigSender{} })
	if err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("err=%v, want the slot-arena 32-bit overflow error", err)
	}
}

// echoBackStep sends per-port payloads with sizes scripted by a fuzz input
// and records a digest of everything received; the fuzz harness compares
// digests between the stepped engine and the goroutine reference. A
// scripted byte of skipMarker suppresses the send entirely, so the fuzzer
// steers all three packed-record states: absent (no send, the zero
// record), present-but-empty (size 0, ln=1) and payload-carrying.
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
	f.Add([]byte{})                          // all empty payloads
	f.Add([]byte{0, 0, 0, 0})                // explicit zero-length sizes
	f.Add([]byte{255, 255, 255, 255})        // clamped to max-bandwidth payloads
	f.Add([]byte{0, 255, 1, 254, 2, 128})    // mixed extremes
	f.Add([]byte{16, 3, 16, 3, 16, 3, 0, 1}) // budget-ish alternation
	// Alternate absent (skipMarker), present-but-empty (0) and tiny
	// payloads: every packed slotRec state (ln=0 / ln=1 / ln=k+1) flips
	// between rounds on the same edges.
	f.Add([]byte{skipMarker, 0, skipMarker, 1, 0, skipMarker, 2, 0})
	f.Add([]byte{skipMarker, skipMarker, skipMarker}) // all slots absent
	g := graph.GNPConnected(40, 0.12, 23)
	budget := NewNetwork(g, Config{}).BandwidthBits() / 8
	f.Fuzz(func(t *testing.T, sizes []byte) {
		run := func(eng Engine) []int64 {
			digest := make([]int64, g.N())
			_, err := NewNetwork(g, Config{Engine: eng}).RunStepped(func(nd *Node) StepProgram {
				return &echoBackStep{digest: digest, sizes: sizes, rounds: 6, budget: budget}
			})
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

// TestNodeFootprint pins the per-node engine state: a Node keeps only what
// lives across rounds, and its per-call I/O is one pointer.
func TestNodeFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 56 {
		t.Errorf("sizeof(Node) = %d B, want ≤ 56", sz)
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled = false

// TestSteppedMillionNodeTorus is the bounded-memory demonstration the
// stepped engine exists for: a 16-round broadcast-and-fold over a
// 1000×1000 torus — one million nodes, four million directed edges — which
// the goroutine-backed engines cannot attempt without gigabytes of stacks.
// Peak RSS must stay under 700 MiB (it was < 1 GiB before the packed slot
// records); the CI memory smoke job additionally runs it under an external
// GOMEMLIMIT.
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
	m, err := net.RunStepped(echoFactory(out, 16))
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
	if _, err := net.RunStepped(echoFactory(out2, 16)); err != nil {
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
// to the Go heap — so the measured peak RSS must land strictly below the
// all-heap run's recorded number (~400 MiB; the CI memsmoke job runs this
// test alone, where the assertion is meaningful). Output equality against
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
	m, err := net.RunStepped(echoFactory(out, 16))
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
	if _, err := net.RunStepped(echoFactory(out2, 16)); err != nil {
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
}
