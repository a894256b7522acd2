package congest

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// The stepped engine executes StepPrograms without per-node goroutines. The
// nodes are partitioned into contiguous chunks (more chunks than workers),
// and a fixed worker pool (GOMAXPROCS workers) sweeps the live nodes once
// per round, claiming chunks off a shared atomic counter:
//
//	claim the next unprocessed chunk            (one atomic add)
//	for each live node of the chunk:
//	  skip it if it sleeps and has no mail      (two loads)
//	  collect inbox from the read slot records  (clearing the records)
//	  call Init / Step                          (the node's compute)
//	  deposit the outbox into the write records (unique-writer array stores,
//	                                             marking each receiver)
//
// then the driver flips the double-buffered record array by round parity
// (the CSR slot layout of topology.go) and the next sweep begins.
// There is no barrier protocol at all: the sweep IS the round, so the only
// synchronization is one WaitGroup arrive/wait per round for the whole
// pool, not per node.
//
// Wake-on-message: a node that called Node.SleepUntil is skipped until its
// timer is due or mail arrives. Deposits mark the receiver in one atomic
// word per node, one bit per round parity (Or at deposit, And at collect),
// so a sweep learns whether a node has mail without scanning its slots,
// and a deposit made later in the same sweep can never erase the mark a
// receiver is about to read: the two parities are different bits. A round
// in which nothing was deposited and no timer is due is not swept at all:
// the driver only advances the round counter, runs the round checks and
// fires the observer, so a program that sleeps between the rounds in which
// it acts pays for its awake nodes and messages, not for n per round. With
// Config.Hooks set every round is swept, so Crash and Stall see exactly
// the opportunities they see on the goroutine engine.
//
// Chunk claiming is what keeps the pool busy on uneven rounds: with the
// static node ranges the engine used before, one slow chunk (a hot spot of
// expensive Steps, or nodes whose neighbourhood is much denser than the
// rest) stalled the whole round while the other workers idled at the
// WaitGroup. With claiming, a worker that finishes its chunk immediately
// grabs the next one, so the round's tail is one chunk, not one n/P range.
// Which worker sweeps a chunk never affects the outcome: deposits land in
// per-chunk arenas addressed by the static node→chunk map, so outputs and
// metrics stay byte-identical for every worker count and interleaving (the
// conformance suite and TestSteppedStealingDeterminism enforce this).
//
// Message slots are packed slotRecs (8 bytes) instead of 24-byte slice
// headers: a deposit copies the payload bytes into
// the sending chunk's three-generation slotArena and stores the (offset,
// tagged length) pair; collect rematerializes the []byte view over the
// arena bytes. Halving-and-then-some the per-edge delivery state is what
// keeps million-node graphs in bounded memory, and the record arrays are
// pointer-free, so the GC never scans them (the [][]byte layout made it
// walk 8 M slice headers per cycle on a million-node torus).
//
// Memory per node is the 56-byte Node, the 16-byte interface value of its
// StepProgram, a 4-byte alive entry, a 4-byte mail word and whatever state
// the program itself keeps — 80 bytes of engine state instead of a
// goroutine stack. A Node keeps only what lives across rounds: its
// outbox, inbox and payload arena are the sweeping worker's, lent through
// Node.io for the length of one Init/Step call. Payloads built via
// Node.PayloadBuf are bump-allocated from that worker's scratch arena and
// recycled without GC traffic.
//
// Semantics are identical to the goroutine engine; the conformance suite
// runs the stepped program corpus on both engines and requires
// byte-identical outputs and metrics — on failed runs too.

// errSyncInStep reports a StepProgram calling Node.Sync.
var errSyncInStep = errors.New("congest: StepProgram must not call Sync (the engine drives rounds)")

// errSlotArenaFull reports a chunk receiving more payload bytes in one
// round than slotRec offsets can address (only a huge BandwidthFactor
// gets there; the default budget keeps rounds ~6 orders of magnitude below
// the limit).
var errSlotArenaFull = errors.New("congest: chunk exceeded 4 GiB of payload bytes in one round (slot records are 32-bit)")

// minChunkNodes keeps chunks coarse enough that the claim counter and the
// per-chunk bookkeeping stay invisible next to the sweep itself.
const minChunkNodes = 256

// chunksPerWorker oversubscribes the chunk count relative to the pool so a
// slow chunk can be compensated by the other workers. 8 balances steal
// granularity against per-chunk overhead.
const chunksPerWorker = 8

// steppedChunk owns a contiguous node range and everything a sweep of that
// range mutates. Exactly one worker processes a chunk per round (the claim
// counter hands each index out once), so chunk state needs no locking; the
// node→chunk map is static, which is what lets receivers locate a sender's
// payload bytes no matter which worker happened to sweep the sender.
type steppedChunk struct {
	lo    int
	alive []int32       // live node indices in this chunk's range, in order
	progs []StepProgram // indexed by v-lo
	slots slotArena     // payload bytes behind this chunk's deposited records
}

// steppedWorker is one pool goroutine's private scratch; it carries no node
// state, so workers can sweep any chunk.
type steppedWorker struct {
	eng   *steppedEngine
	id    int          // pool index, for the observer's per-worker lanes
	arena payloadArena // PayloadBuf scratch, truncated every round
	// io is the per-call I/O of whichever node the worker is running: a
	// node only holds an outbox, an inbox and an arena while its Init/Step
	// runs, so one set per worker replaces one per node. Its arena points
	// at the worker's own.
	io nodeIO

	// Sender-resolution cache for collect, persisted across the nodes of a
	// sweep (reset each phase: the delivered generation changes): payload
	// views for senders in [srcLo, srcHi) come from srcBytes. Neighbouring
	// nodes share neighbours, so the hit rate is near-total and the
	// division in the miss path all but disappears from the profile.
	srcLo, srcHi int
	srcBytes     []byte

	msgs    int64
	bits    int64
	maxBits int
	hist    MsgHist // maintained only when eng.obs is set

	// Per-sweep results, reset by sweep: awake counts the Init/Step calls,
	// due is the earliest phase at which a live node of the claimed chunks
	// must run without mail.
	awake int
	due   int
}

// steppedEngine coordinates one stepped run.
type steppedEngine struct {
	net   *Network
	topo  *topology
	round int // deliveries performed; written only by the driver between sweeps
	// recs[(round+1)&1] is the write record array during the current sweep;
	// recs[round&1] holds the records being delivered from it. 8 B per
	// directed edge per parity, vs 24 B for a [][]byte slot array.
	recs [2][]slotRec
	// marks[v] bit (q&1) is set when mail for phase q was deposited to v:
	// Or at deposit (phase q-1), And when v collects it (phase q).
	marks     []atomic.Uint32
	chunkSize int // nodes per chunk; node v belongs to chunks[v/chunkSize]
	nodes     []Node
	chunks    []steppedChunk
	workers   []steppedWorker

	// cursor is the chunk claim counter: workers atomically take the next
	// chunk index until the sweep runs out. Reset by the driver between
	// rounds (never mid-sweep, so resets need no synchronization beyond the
	// round WaitGroup).
	cursor atomic.Int64

	failMu  sync.Mutex
	failure error

	metrics Metrics
	// obs mirrors net.cfg.Observer (nil = telemetry off).
	obs Observer
}

// runStepped executes the stepped program built by f on every node.
func (net *Network) runStepped(f StepFactory) (Metrics, error) {
	n := net.g.N()
	eng := &steppedEngine{net: net}
	eng.metrics.BandwidthBits = net.BandwidthBits()
	eng.obs = net.cfg.Observer
	if n == 0 {
		return eng.metrics, nil
	}
	eng.topo = net.topology()
	slots := len(eng.topo.destSlot)
	eng.recs[0] = make([]slotRec, slots)
	eng.recs[1] = make([]slotRec, slots)
	eng.marks = make([]atomic.Uint32, n)

	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	// Oversubscribe the chunk count so workers can steal: aim for
	// chunksPerWorker chunks per pool goroutine, floored at minChunkNodes
	// nodes per chunk so tiny graphs stay a single claim.
	chunk := (n + chunksPerWorker*p - 1) / (chunksPerWorker * p)
	if chunk < minChunkNodes {
		chunk = minChunkNodes
	}
	if chunk > n {
		chunk = n
	}
	numChunks := (n + chunk - 1) / chunk
	eng.chunkSize = chunk
	eng.nodes = make([]Node, n)
	eng.chunks = make([]steppedChunk, numChunks)
	for c := range eng.chunks {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ck := &eng.chunks[c]
		ck.lo = lo
		ck.alive = make([]int32, 0, hi-lo)
		ck.progs = make([]StepProgram, hi-lo)
		for v := lo; v < hi; v++ {
			nd := &eng.nodes[v]
			nd.net, nd.sched, nd.v = net, eng, v
			ck.alive = append(ck.alive, int32(v))
		}
	}
	eng.workers = make([]steppedWorker, p)

	// Persistent worker pool: one goroutine per worker for the whole run,
	// woken per round with its phase number; each drains the chunk claim
	// counter until the sweep is exhausted.
	var wg sync.WaitGroup
	starts := make([]chan int, p)
	for w := range eng.workers {
		eng.workers[w].eng = eng
		eng.workers[w].id = w
		eng.workers[w].io.arena = &eng.workers[w].arena
		starts[w] = make(chan int, 1)
		go func(wk *steppedWorker, start chan int) {
			for phase := range start {
				wk.sweep(f, phase)
				wg.Done()
			}
		}(&eng.workers[w], starts[w])
	}

	// Phase 0 is Init; phase p sweeps Step(p-1). due is the first phase
	// that must be swept; the phases before it have no mail and no due
	// timer, so they are delivered without waking the pool.
	var aliveTotal int
	var sent int64 // messages deposited before the current sweep
	for phase, due := 0, 0; ; phase++ {
		if eng.obs != nil {
			eng.obs.RoundStart(phase + 1)
		}
		swept := phase >= due
		awake := 0
		if swept {
			eng.cursor.Store(0)
			wg.Add(p)
			for w := range starts {
				starts[w] <- phase
			}
			wg.Wait()
			if eng.failure != nil {
				break
			}
			aliveTotal = 0
			for c := range eng.chunks {
				aliveTotal += len(eng.chunks[c].alive)
			}
			if aliveTotal == 0 {
				// All nodes done: final sends are counted but, as on the
				// goroutine engine, no further delivery happens.
				break
			}
			var msgs int64
			due = math.MaxInt
			for w := range eng.workers {
				wk := &eng.workers[w]
				msgs += wk.msgs
				awake += wk.awake
				due = min(due, wk.due)
			}
			if msgs != sent || net.cfg.Hooks != nil {
				due = phase + 1
			}
			sent = msgs
		}
		eng.round++ // delivery: the record arrays trade roles by parity
		roundErr := net.checkRound(eng.round)
		if eng.obs != nil {
			// RoundEnd fires iff the round counter advanced — even when
			// checkRound just failed the round (matching the blocking
			// engines). The pool is parked, so all state reads are plain.
			st := RoundStats{Round: eng.round, Live: aliveTotal, Awake: awake}
			for w := range eng.workers {
				wk := &eng.workers[w]
				st.Messages += wk.msgs
				st.Bits += wk.bits
				if wk.maxBits > st.MaxMsgBits {
					st.MaxMsgBits = wk.maxBits
				}
				st.Hist.Merge(wk.hist)
			}
			if swept {
				var arenaBytes int64
				for c := range eng.chunks {
					arenaBytes += int64(len(eng.chunks[c].slots.gens[phase%3]))
				}
				eng.obs.Event(Event{Kind: EvArena, Round: eng.round, Node: -1, Value: arenaBytes})
			}
			eng.obs.RoundEnd(st)
		}
		if roundErr != nil {
			eng.fail(roundErr)
			break
		}
	}
	for w := range starts {
		close(starts[w])
	}

	for w := range eng.workers {
		wk := &eng.workers[w]
		eng.metrics.Messages += wk.msgs
		eng.metrics.Bits += wk.bits
		if wk.maxBits > eng.metrics.MaxMsgBits {
			eng.metrics.MaxMsgBits = wk.maxBits
		}
	}
	// Failed runs report how far they got — the same Rounds/AvgMsgBits a
	// failing blocking engine reports, so callers can diagnose ErrMaxRounds
	// and ErrBandwidth from the metrics alone.
	eng.metrics.Rounds = eng.round
	if eng.metrics.Messages > 0 {
		eng.metrics.AvgMsgBits = float64(eng.metrics.Bits) / float64(eng.metrics.Messages)
	}
	return eng.metrics, eng.failure
}

// sweep runs one round on this worker: claim chunks off the shared cursor
// until none remain, processing each claimed chunk's live nodes.
func (w *steppedWorker) sweep(f StepFactory, phase int) {
	eng := w.eng
	w.arena.reset()
	w.awake, w.due = 0, math.MaxInt
	// Invalidate the sender cache: the delivered generation changed.
	w.srcLo, w.srcHi, w.srcBytes = 0, 0, nil
	if eng.obs != nil {
		eng.obs.Event(Event{Kind: EvSweepStart, Round: phase + 1, Node: w.id})
	}
	claimed := 0
	for {
		c := int(eng.cursor.Add(1)) - 1
		if c >= len(eng.chunks) {
			break
		}
		claimed++
		if c == 0 {
			if h := eng.net.cfg.Hooks; h != nil {
				// Timing-only worker stall: delays whichever worker claimed
				// the first chunk, perturbing the stealing schedule — the
				// conformance suite proves outcomes don't move.
				h.Stall(phase)
			}
		}
		w.sweepChunk(f, phase, &eng.chunks[c])
	}
	if eng.obs != nil {
		// The start/end receipt stamps bound the worker's busy span; Value
		// is its share of the round's chunks (the steal distribution).
		eng.obs.Event(Event{Kind: EvSweepEnd, Round: phase + 1, Node: w.id, Value: int64(claimed)})
	}
}

// sweepChunk runs one round over one chunk's live nodes: collect, step,
// deposit, skipping sleeping nodes without mail. Phase 0 instantiates the
// programs and calls Init instead.
func (w *steppedWorker) sweepChunk(f StepFactory, phase int, ck *steppedChunk) {
	eng := w.eng
	var histp *MsgHist
	if eng.obs != nil {
		histp = &w.hist
	}
	ck.slots.reset(phase)
	writeRecs := eng.recs[(phase+1)&1]
	readRecs := eng.recs[phase&1]
	gen := (phase + 2) % 3 // the generation delivered during this sweep
	mail := uint32(1) << (phase & 1)
	hooks := eng.net.cfg.Hooks
	// Per-node tallies stay in locals and reach the worker once per chunk:
	// the worker structs sit side by side, so per-node stores to them
	// would bounce a cache line shared with the next worker's hot fields.
	awake, due := 0, math.MaxInt
	kept := ck.alive[:0]
	for _, v32 := range ck.alive {
		v := int(v32)
		nd := &eng.nodes[v]
		if hooks != nil {
			nd.op = phase // compute opportunity: phase 0 = Init, phase p = Step(p-1)
		}
		var done bool
		if hooks != nil && hooks.Crash(v, phase) {
			// Crash-stop: as if the program returned done at the start of
			// this opportunity with an empty outbox. The goroutine engine's
			// counterpart is the crashStop unwind in Sync / runProg.
			done = true
		} else if phase > 0 && int(nd.sleep) >= phase && eng.marks[v].Load()&mail == 0 {
			// Asleep (Step(phase-1) is before its timer) with no mail.
			kept = append(kept, v32)
			due = min(due, int(nd.sleep)+1)
			continue
		} else {
			nd.io = &w.io // the sweeping worker's scratch, not a fixed owner
			nd.sleep = 0
			awake++
			if phase == 0 {
				done = w.initNode(f, ck, nd)
			} else {
				in := w.collect(readRecs, gen, v, mail)
				done = w.stepNode(ck, nd, phase-1, in)
			}
			nd.io = nil
			// Deposit unconditionally: sends queued before a final return or
			// a panic are delivered and counted, like the goroutine engine's
			// finish semantics.
			if out := w.io.outbox; len(out) > 0 {
				msgs, bits, maxB, ok := eng.topo.depositOutboxPacked(v, out, writeRecs, &ck.slots, phase, histp,
					eng.net.g.Neighbors(v), eng.marks)
				w.msgs += msgs
				w.bits += bits
				if maxB > w.maxBits {
					w.maxBits = maxB
				}
				if !ok {
					eng.fail(fmt.Errorf("congest: node %d: %w", v, errSlotArenaFull))
					done = true
				}
				w.io.outbox = out[:0] // keep the (possibly grown) backing
			}
		}
		if done {
			nd.stopped = true
			ck.progs[v-ck.lo] = nil
		} else {
			kept = append(kept, v32)
			due = min(due, max(phase, int(nd.sleep))+1)
		}
	}
	ck.alive = kept
	w.awake += awake
	w.due = min(w.due, due)
}

// collect gathers node v's inbox from the delivered records into the
// worker's scratch slice (valid only until the node's Step returns),
// clearing the records for reuse as the write array two rounds later. A
// node whose mail bit is clear has an empty inbox, so its slots are not
// scanned; otherwise the bit is cleared here, with the records.
// Payload views point straight into the sending chunks' slot arenas; the
// sender of slot inOff[v]+q is v's neighbour on port q, so its chunk — and
// with it the generation (gen) holding the bytes — follows from the
// adjacency list. The delivered generation was sealed at the previous
// round's barrier and no worker touches it this round (sweeps write
// generation phase%3 only), so cross-chunk reads are race-free no matter
// which workers claimed the sending chunks.
func (w *steppedWorker) collect(readRecs []slotRec, gen, v int, mail uint32) []Incoming {
	eng := w.eng
	in := w.io.inbox[:0]
	if eng.marks[v].Load()&mail == 0 {
		return in
	}
	eng.marks[v].And(^mail)
	off, end := eng.topo.inOff[v], eng.topo.inOff[v+1]
	nbrs := eng.net.g.Neighbors(v)
	// The worker's sender cache is keyed by the sender's chunk range, so the
	// hit path is two compares — no division, no arena lookup.
	srcLo, srcHi, srcBytes := w.srcLo, w.srcHi, w.srcBytes
	for i := off; i < end; i++ {
		r := readRecs[i]
		if r.ln == 0 {
			continue
		}
		readRecs[i] = slotRec{}
		q := int(i - off)
		var pl []byte
		if r.ln > 1 {
			if u := int(nbrs[q]); u < srcLo || u >= srcHi {
				cIdx := u / eng.chunkSize
				srcLo = cIdx * eng.chunkSize
				srcHi = srcLo + eng.chunkSize
				srcBytes = eng.chunks[cIdx].slots.gens[gen]
			}
			hi := r.off + r.ln - 1
			pl = srcBytes[r.off:hi:hi]
		}
		in = append(in, Incoming{Port: q, Payload: pl})
	}
	w.srcLo, w.srcHi, w.srcBytes = srcLo, srcHi, srcBytes
	w.io.inbox = in
	return in
}

// initNode builds the node's program and runs Init, converting panics into
// the run failure. A panicked node is treated as done.
func (w *steppedWorker) initNode(f StepFactory, ck *steppedChunk, nd *Node) (done bool) {
	defer w.recoverStep(nd, &done)
	prog := f(nd)
	ck.progs[nd.v-ck.lo] = prog
	return prog.Init(nd)
}

// stepNode runs one Step, converting panics into the run failure.
func (w *steppedWorker) stepNode(ck *steppedChunk, nd *Node, round int, in []Incoming) (done bool) {
	defer w.recoverStep(nd, &done)
	return ck.progs[nd.v-ck.lo].Step(nd, round, in)
}

// recoverStep records a program panic as the run failure. The sweep keeps
// processing the remaining nodes of the round — the goroutine engine lets
// concurrently running nodes complete their round too — and the driver
// aborts before the next delivery.
func (w *steppedWorker) recoverStep(nd *Node, done *bool) {
	if r := recover(); r != nil {
		if re, ok := r.(runError); ok {
			w.eng.fail(re.err)
		} else {
			w.eng.fail(fmt.Errorf("congest: node %d panicked: %v", nd.v, r))
		}
		*done = true
	}
}

// fail records the first failure. The driver observes it at the round
// barrier, so no wake-up machinery is needed.
func (eng *steppedEngine) fail(err error) {
	eng.failMu.Lock()
	if eng.failure == nil {
		eng.failure = err
	}
	eng.failMu.Unlock()
}

func (eng *steppedEngine) currentRound() int { return eng.round }

// barrier rejects Sync from StepPrograms: the engine owns the round loop.
func (eng *steppedEngine) barrier(nd *Node) {
	panic(runError{fmt.Errorf("%w: node %d", errSyncInStep, nd.v)})
}
