package congest

import "fmt"

// Observer receives per-round telemetry from a run (see Config.Observer).
// It is the read-only twin of Hooks: the engines call it at semantically
// identical points, but unlike a Hooks implementation an Observer can never
// change an outcome — it has no return values, and the conformance suite
// (internal/congest/conformance) proves that attaching one leaves outputs,
// metrics and sentinel classes byte-identical across all engines and
// program forms. Telemetry observes the run; it never participates in it.
//
// The engines are deterministic packages (no wall-clock reads, see
// docs/ARCHITECTURE.md#static-guarantees), so callbacks carry counters and
// positions only; the observer side (internal/obs) timestamps them on
// receipt. RoundStart and RoundEnd are serialized per run — the engines
// call them from their single-threaded delivery points — while Event may
// arrive concurrently from engine workers, so implementations must be safe
// for concurrent use. Production runs leave Config.Observer nil; the nil
// check is the only cost on the hot paths.
type Observer interface {
	// RoundStart announces that the compute of the given round (1-based)
	// is beginning: the engines emit it just before the sweep or barrier
	// interval whose deposits the round's delivery will carry. A trailing
	// RoundStart with no matching RoundEnd means the run ended during that
	// compute (all nodes finished, or the run failed before delivery).
	RoundStart(round int)
	// RoundEnd reports the delivery of the given round. It fires exactly
	// when the engine's round counter advances, so on every engine and
	// every outcome — failed runs included — the number of RoundEnd calls
	// equals the run's Metrics.Rounds.
	RoundEnd(s RoundStats)
	// Event reports an engine- or fault-specific occurrence (see
	// EventKind). Events may be emitted concurrently by engine workers;
	// Round is -1 when the emitter cannot read the round counter without
	// synchronizing (the observer attributes it to the round in progress).
	Event(e Event)
}

// RoundStats is the snapshot RoundEnd delivers. Traffic counters are
// cumulative over the run (the observer side takes deltas), taken at the
// delivery point, so the final RoundEnd of a healthy run carries exactly
// the run's Metrics traffic. Live and Awake are the two engine-flavoured
// fields:
//
//   - Live counts the nodes still participating at the delivery. The
//     goroutine engine counts nodes whose programs have not returned, the
//     stepped engine nodes whose last Step returned not-done: equal in
//     steady state, but a node that returns right after its last Sync is
//     counted by the former and not the latter.
//   - Awake counts the nodes whose Init/Step ran in the round's compute,
//     so summed over a run it is the node-steps the run paid for. The
//     stepped engine skips sleeping nodes without mail (Node.SleepUntil)
//     and reports 0 for a round it did not sweep; the goroutine engine
//     runs every live goroutine every round and reports Live.
type RoundStats struct {
	Round      int     // the round just delivered (1-based)
	Live       int     // nodes still participating after the delivery
	Awake      int     // nodes whose Init/Step ran in this round
	Messages   int64   // cumulative messages deposited
	Bits       int64   // cumulative payload bits deposited
	MaxMsgBits int     // largest single message so far
	Hist       MsgHist // cumulative message-size histogram
}

// MsgHist is a power-of-two histogram of message payload sizes in bits:
// bucket 0 counts empty messages, bucket k ≥ 1 counts payloads of
// [2^(k-1), 2^k) bits, and the last bucket absorbs everything larger.
// CONGEST payloads are O(log n) bits, so the top buckets stay empty except
// under a very large BandwidthFactor.
type MsgHist [16]int64

// Merge adds other's counts into h.
func (h *MsgHist) Merge(other MsgHist) {
	for i, c := range other {
		h[i] += c
	}
}

// Total returns the number of messages counted.
func (h MsgHist) Total() int64 {
	var t int64
	for _, c := range h {
		t += c
	}
	return t
}

// BucketLabel renders bucket i's payload-bit range ("0", "1", "2-3",
// "8-15", "≥16384") for profile tables.
func BucketLabel(i int) string {
	switch {
	case i == 0:
		return "0"
	case i == 1:
		return "1"
	case i == len(MsgHist{})-1:
		return fmt.Sprintf("≥%d", 1<<(i-1))
	default:
		return fmt.Sprintf("%d-%d", 1<<(i-1), 1<<i-1)
	}
}

// EventKind enumerates the engine- and fault-specific Event classes.
type EventKind int

// Event kinds. Each engine emits its own scheduler events; EvFault comes
// from the fault injector (chaos.Plan.WithObserver).
const (
	// EvFault: an injected fault fired (Node = the faulted node or -1 for
	// round faults; Detail names the fault).
	EvFault EventKind = iota + 1
	// EvArena: stepped engine, per round — Value is the total slot-arena
	// bytes deposited during the round's sweep (summed over chunks); the
	// run's high-water mark is the max over rounds.
	EvArena
	// EvSweepStart: stepped engine — worker Node began the sweep of round
	// Round. The observer's receipt timestamps of the start/end pair are
	// the worker's busy span (one Chrome-trace lane per worker).
	EvSweepStart
	// EvSweepEnd: stepped engine — worker Node finished its sweep of round
	// Round after claiming Value chunks (the per-worker steal count; the
	// spread across workers shows how uneven the round's work was).
	EvSweepEnd
	// EvWake: goroutine engine, per round — Value is the number of parked
	// node goroutines the delivery woke (the condvar pressure the stepped
	// engine's sweep has none of).
	EvWake
)

// String returns the kind's JSONL/profile tag.
func (k EventKind) String() string {
	switch k {
	case EvFault:
		return "fault"
	case EvArena:
		return "arena"
	case EvSweepStart:
		return "sweep-start"
	case EvSweepEnd:
		return "sweep-end"
	case EvWake:
		return "wake"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one engine occurrence delivered to Observer.Event.
type Event struct {
	Kind   EventKind
	Round  int    // round the event belongs to; -1 = the round in progress
	Node   int    // node or worker index; -1 when not applicable
	Value  int64  // kind-specific magnitude (bytes, chunks, goroutines)
	Detail string // kind-specific description (fault rendering); usually empty
}
