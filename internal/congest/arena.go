package congest

import "encoding/binary"

// payloadArena is a bump allocator for the scratch buffers Node.PayloadBuf
// hands out, owned by one stepped-engine worker (single writer, no locking).
// Since the packed-slot layout copies every payload into the worker's
// slotArena at deposit time, a PayloadBuf buffer is only live from the
// Init/Step call that allocates it until that node's deposit — so a single
// block, truncated once per round, is enough; the delivered-payload lifetime
// guarantee lives in the slotArena below.
//
// The block grows geometrically. When it is full a larger one replaces it
// without copying: payload slices already handed out this round keep the old
// block alive through their own slice headers until the deposit copies them
// out, so growth can never clobber an outstanding buffer. In steady state no
// allocation happens at all — reset is a length truncation.
type payloadArena struct {
	block []byte
}

// alloc returns a zero-length slice with the given capacity, bump-allocated
// from the current block. Appending beyond the capacity falls out of the
// arena safely (the three-index slice cannot clobber later payloads).
func (a *payloadArena) alloc(capacity int) []byte {
	g := a.block
	if cap(g)-len(g) < capacity {
		size := 2 * cap(g)
		if size < 4096 {
			size = 4096
		}
		if size < capacity {
			size = capacity
		}
		g = make([]byte, 0, size)
	}
	off := len(g)
	a.block = g[: off+capacity : cap(g)]
	return g[off : off : off+capacity]
}

// reset recycles the block. Called by the owning worker at the start of
// every round, when every buffer handed out last round has been deposited.
func (a *payloadArena) reset() {
	a.block = a.block[:0]
}

// slotRec is a packed per-edge message slot: 4 bytes instead of the
// 24-byte slice header a [][]byte slot array spends per slot. The payload
// lives in the sending chunk's slotArena as one entry, uvarint(len)
// followed by the bytes, so the record only needs the entry's start:
//
//	r == 0   no message (the cleared state; absent slots stay zero)
//	r == 1   present but empty (delivered as a nil payload, like every
//	         engine; no arena bytes)
//	r >= 2   the entry starts at gens[...][r-2] of the sender's arena
type slotRec uint32

// payload rematerializes the []byte view of a record r ≥ 2 over gen, the
// sending chunk's delivered generation.
func (r slotRec) payload(gen []byte) []byte {
	e := gen[r-2:]
	n, k := binary.Uvarint(e)
	end := k + int(n)
	return e[k:end:end]
}

// slotPayloadLimit is the most arena bytes one chunk can deposit per round.
// Every entry is at least 2 bytes (a prefix and one payload byte), so an
// arena of at most 2³²-1 bytes starts its last entry at or below 2³²-3 and
// every record r = off+2 fits in a uint32. int64 so the declaration
// compiles on 32-bit platforms (where len can never reach it and the guard
// is simply dead). Runs at the default budget sit ~6 orders of magnitude
// below the limit; only a huge BandwidthFactor with gigabytes of messages
// per round can hit it, and it fails loudly. A var only so the overflow
// test can probe the guard without 4 GiB of RAM.
var slotPayloadLimit int64 = 1<<32 - 1

// slotArena owns the payload bytes behind a worker's deposited slotRecs:
// one flat byte slice per generation, indexed by phase so writers and
// readers agree on which generation holds which round's bytes without any
// shared cursor. Three generations preserve the aliasing guarantee the
// [][]byte layout got from the old three-generation payload arena:
//
//	phase k   deposits copy payload bytes into generation k%3,
//	phase k+1 readers materialize Incoming views over those bytes,
//	phase k+2 leaves them untouched for one grace round,
//	phase k+3 truncates generation k%3 and recycles the memory.
//
// A phase the engine does not sweep (nothing due, see stepped.go) neither
// deposits nor truncates, so recycling only ever comes later, never
// earlier.
//
// So a payload delivered in round r is never aliased by a round r+1 send: a
// Step that (against the documented contract) holds an inbox payload one
// extra round still reads intact bytes, and contract violations fail loudly
// in tests rather than silently corrupting messages.
//
// Unlike payloadArena, a full generation grows by append (copy): offsets
// recorded earlier in the round must stay valid against the generation's
// base, and readers only look after the round's sweep barrier, so mid-round
// reallocation is invisible to them.
type slotArena struct {
	gens [3][]byte
}

// reset truncates the generation phase%3 for reuse, recycling the bytes
// deposited at phase-3. Called by the owning worker at the start of every
// sweep, before its first deposit of the round.
func (a *slotArena) reset(phase int) {
	g := a.gens[phase%3]
	a.gens[phase%3] = g[:0]
}

// delivered returns the generation holding the bytes deposited during
// phase-1, i.e. the bytes being delivered while the caller sweeps phase.
func (a *slotArena) delivered(phase int) []byte {
	return a.gens[(phase+2)%3]
}
