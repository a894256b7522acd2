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
// Message slots are 4-byte slotRecs instead of 24-byte slice headers: a
// deposit appends the payload to the sending chunk's three-generation
// slotArena as a length-prefixed entry and stores the entry's offset (+2,
// so 0 and 1 can mean absent and empty); collect decodes the prefix and
// rematerializes the []byte view over the arena bytes. Shrinking the
// per-edge delivery state sixfold is what keeps million-node graphs in
// bounded memory, and the record arrays are pointer-free, so the GC never
// scans them (the [][]byte layout made it walk 8 M slice headers per
// cycle on a million-node torus).
//
// Memory per node is an 8-byte alive entry (the node's index and its sleep
// round, the only Node state that lives across rounds), a 4-byte mail word
// and whatever state the program itself keeps in its slabs — 12 bytes of
// engine state instead of a goroutine stack. There is no per-node program
// value: one StepProgram serves every node, each call naming its node
// through Node.V. Nor is there a per-node Node: each worker owns one, wired
// to the network, the engine and the worker's outbox, inbox and payload
// arena once, and lends it to every node it runs, setting its index and
// clearing its sleep before each Init/Step call and storing the sleep
// back into the alive entry after it. Payloads built via Node.PayloadBuf
// are bump-allocated from that worker's scratch arena and recycled
// without GC traffic.
//
// Semantics are identical to the goroutine engine; the conformance suite
// runs the stepped program corpus on both engines and requires
// byte-identical outputs and metrics — on failed runs too.

// errSyncInStep reports a StepProgram calling Node.Sync.
var errSyncInStep = errors.New("congest: StepProgram must not call Sync (the engine drives rounds)")

// errSlotArenaFull reports a chunk depositing more arena bytes in one
// round than slotRecs can address (only a huge BandwidthFactor gets there;
// the default budget keeps rounds ~6 orders of magnitude below the limit).
var errSlotArenaFull = errors.New("congest: chunk exceeded 4 GiB of arena bytes in one round (slot records are 32-bit)")

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
	alive []liveNode // live nodes in this chunk's range, in index order
	slots slotArena  // payload bytes behind this chunk's deposited records
}

// liveNode is a live node's entry in its chunk: its index and the round it
// next runs even without mail (Node.SleepUntil; 0 = awake). The sweep reads
// the two in one sequential 8-byte load and touches the mail word only for
// a sleeping node.
type liveNode struct {
	v     int32
	sleep int32
}

// steppedWorker is one pool goroutine's private scratch; it carries no node
// state across calls, so workers can sweep any chunk.
type steppedWorker struct {
	eng   *steppedEngine
	id    int          // pool index, for the observer's per-worker lanes
	arena payloadArena // PayloadBuf scratch, truncated every round
	// io is the per-call I/O of whichever node the worker is running: a
	// node only holds an outbox, an inbox and an arena while its Init/Step
	// runs, so one set per worker replaces one per node. Its arena points
	// at the worker's own.
	io nodeIO
	// nd is the Node every Init/Step call of this worker receives; its
	// net, sched and io are fixed, v and sleep are set per call.
	nd Node

	// Sender-resolution cache for collect, persisted across the nodes of a
	// sweep (reset each phase: the delivered generation changes): payload
	// views for senders in [srcLo, srcHi) come from srcBytes. Neighbouring
	// nodes share neighbours, so the hit rate is near-total and the
	// division in the miss path all but disappears from the profile.
	srcLo, srcHi int
	srcBytes     []byte

	// traffic counts this worker's deposits, message by message. The
	// fields before it and its own top histogram buckets, which CONGEST
	// payloads never reach, keep those stores off the neighbouring
	// workers' cache lines.
	traffic tally

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
	// recs[round&1] holds the records being delivered from it. 4 B per
	// directed edge per parity, vs 24 B for a [][]byte slot array.
	recs [2][]slotRec
	// marks[v] bit (q&1) is set when mail for phase q was deposited to v:
	// Or at deposit (phase q-1), And when v collects it (phase q).
	marks     []atomic.Uint32
	chunkSize int // nodes per chunk; node v belongs to chunks[v/chunkSize]
	chunks    []steppedChunk
	workers   []steppedWorker

	// cursor is the chunk claim counter: workers atomically take the next
	// chunk index until the sweep runs out. Reset by the driver between
	// rounds (never mid-sweep, so resets need no synchronization beyond the
	// round WaitGroup).
	cursor atomic.Int64

	failMu  sync.Mutex
	failure error

	// obs mirrors net.cfg.Observer (nil = telemetry off).
	obs Observer
}

// runStepped executes prog on every node.
func (net *Network) runStepped(prog StepProgram) (Metrics, error) {
	n := net.g.N()
	eng := &steppedEngine{net: net, obs: net.cfg.Observer}
	if n == 0 {
		return net.metrics(0, tally{}), nil
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
	eng.chunks = make([]steppedChunk, numChunks)
	for c := range eng.chunks {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ck := &eng.chunks[c]
		ck.alive = make([]liveNode, 0, hi-lo)
		for v := lo; v < hi; v++ {
			ck.alive = append(ck.alive, liveNode{v: int32(v)})
		}
	}
	eng.workers = make([]steppedWorker, p)

	// Persistent worker pool: one goroutine per worker for the whole run,
	// woken per round with its phase number; each drains the chunk claim
	// counter until the sweep is exhausted.
	var wg sync.WaitGroup
	starts := make([]chan int, p)
	for w := range eng.workers {
		wk := &eng.workers[w]
		wk.eng, wk.id = eng, w
		wk.io.arena = &wk.arena
		wk.nd = Node{net: net, sched: eng, io: &wk.io}
		starts[w] = make(chan int, 1)
		go func(wk *steppedWorker, start chan int) {
			for phase := range start {
				wk.sweep(prog, phase)
				wg.Done()
			}
			wg.Done() // exited
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
				msgs += wk.traffic.msgs
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
			if swept {
				var arenaBytes int64
				for c := range eng.chunks {
					arenaBytes += int64(len(eng.chunks[c].slots.gens[phase%3]))
				}
				eng.obs.Event(Event{Kind: EvArena, Round: eng.round, Node: -1, Value: arenaBytes})
			}
			eng.obs.RoundEnd(eng.traffic().stats(eng.round, aliveTotal, awake))
		}
		if roundErr != nil {
			eng.fail(roundErr)
			break
		}
	}
	// Join the pool: a worker the close has not woken yet holds the engine.
	wg.Add(p)
	for w := range starts {
		close(starts[w])
	}
	wg.Wait()
	return net.metrics(eng.round, eng.traffic()), eng.failure
}

// traffic folds the workers' tallies. The pool must be parked.
func (eng *steppedEngine) traffic() tally {
	var t tally
	for w := range eng.workers {
		t.add(&eng.workers[w].traffic)
	}
	return t
}

// sweep runs one round on this worker: claim chunks off the shared cursor
// until none remain, processing each claimed chunk's live nodes.
func (w *steppedWorker) sweep(prog StepProgram, phase int) {
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
		w.sweepChunk(prog, phase, &eng.chunks[c])
	}
	if eng.obs != nil {
		// The start/end receipt stamps bound the worker's busy span; Value
		// is its share of the round's chunks (the steal distribution).
		eng.obs.Event(Event{Kind: EvSweepEnd, Round: phase + 1, Node: w.id, Value: int64(claimed)})
	}
}

// sweepChunk runs one round over one chunk's live nodes: collect, step,
// deposit, skipping sleeping nodes without mail. Phase 0 calls Init instead.
func (w *steppedWorker) sweepChunk(prog StepProgram, phase int, ck *steppedChunk) {
	eng := w.eng
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
	nd := &w.nd
	for _, e := range ck.alive {
		v := int(e.v)
		var done bool
		if hooks != nil && hooks.Crash(v, phase) {
			// Crash-stop: as if the program returned done at the start of
			// this opportunity with an empty outbox. The goroutine engine's
			// counterpart is the crashStop unwind in Sync / runProg.
			done = true
		} else if phase > 0 && int(e.sleep) >= phase && eng.marks[v].Load()&mail == 0 {
			// Asleep (Step(phase-1) is before its timer) with no mail.
			kept = append(kept, e)
			due = min(due, int(e.sleep)+1)
			continue
		} else {
			nd.v, nd.sleep = v, 0
			awake++
			if phase == 0 {
				done = w.initNode(prog)
			} else {
				in := w.collect(readRecs, gen, v, mail)
				done = w.stepNode(prog, phase-1, in)
			}
			e.sleep = nd.sleep
			// Deposit unconditionally: sends queued before a final return or
			// a panic are delivered and counted, like the goroutine engine's
			// finish semantics.
			if out := w.io.outbox; len(out) > 0 {
				if !eng.topo.depositOutboxPacked(v, out, writeRecs, &ck.slots, phase, &w.traffic,
					eng.net.g.Neighbors(v), eng.marks) {
					eng.fail(fmt.Errorf("congest: node %d: %w", v, errSlotArenaFull))
					done = true
				}
				w.io.outbox = out[:0] // keep the (possibly grown) backing
			}
		}
		if !done {
			kept = append(kept, e)
			due = min(due, max(phase, int(e.sleep))+1)
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
		if r == 0 {
			continue
		}
		readRecs[i] = 0
		q := int(i - off)
		var pl []byte
		if r > 1 {
			if u := int(nbrs[q]); u < srcLo || u >= srcHi {
				cIdx := u / eng.chunkSize
				srcLo = cIdx * eng.chunkSize
				srcHi = srcLo + eng.chunkSize
				srcBytes = eng.chunks[cIdx].slots.gens[gen]
			}
			pl = r.payload(srcBytes)
		}
		in = append(in, Incoming{Port: q, Payload: pl})
	}
	w.srcLo, w.srcHi, w.srcBytes = srcLo, srcHi, srcBytes
	w.io.inbox = in
	return in
}

// initNode runs Init for the node the worker's Node stands for, converting
// panics into the run failure. A panicked node is treated as done.
func (w *steppedWorker) initNode(prog StepProgram) (done bool) {
	defer w.recoverStep(&done)
	return prog.Init(&w.nd)
}

// stepNode runs one Step of the worker's current node, converting panics
// into the run failure.
func (w *steppedWorker) stepNode(prog StepProgram, round int, in []Incoming) (done bool) {
	defer w.recoverStep(&done)
	return prog.Step(&w.nd, round, in)
}

// recoverStep records a program panic as the run failure. The sweep keeps
// processing the remaining nodes of the round — the goroutine engine lets
// concurrently running nodes complete their round too — and the driver
// aborts before the next delivery.
func (w *steppedWorker) recoverStep(done *bool) {
	if r := recover(); r != nil {
		if re, ok := r.(runError); ok {
			w.eng.fail(re.err)
		} else {
			w.eng.fail(fmt.Errorf("congest: node %d panicked: %v", w.nd.v, r))
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
