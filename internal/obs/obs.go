// Package obs is the engine observability layer: it turns the counters the
// deterministic congest engines emit through congest.Observer into a
// timestamped, diffable time series, and fans it out to pluggable sinks —
// a streaming JSONL trace (trace.go), an in-memory profile aggregator
// (profile.go) and a Chrome trace-event exporter (chrome.go).
//
// The division of labour is strict: the engines are deterministic packages
// whose only wall-clock reads are the audited Deadline checks, so their
// callbacks carry counters only; the Recorder here is the single place a
// telemetry timestamp is taken (the nondet analyzer grants exactly this
// package a wall-clock exemption, see internal/lint). Every sink sees the
// same stamped records, which is why a JSONL trace replayed through
// Replay reproduces bit-identical profiles: the stamps travel with the
// records instead of being re-taken per sink.
//
// Attaching a Recorder never changes a run: the conformance suite
// (internal/congest/conformance) proves outputs, metrics and sentinel
// classes stay byte-identical with and without one, on every engine and
// program form.
package obs

import (
	"sync"
	"time"

	"congestds/internal/congest"
)

// RoundRec is one delivered round, stamped and delta-ified: traffic fields
// are this round's contribution (the engines report cumulative counters;
// the Recorder subtracts), stamps are nanoseconds since the Recorder was
// created (monotonic).
type RoundRec struct {
	// Seg numbers the engine run within the Recorder's lifetime (a
	// pipeline such as mds runs several): 0-based, detected at RoundStart.
	Seg   int `json:"seg"`
	Round int `json:"round"`
	// StartNs/WallNs bound the round: receipt stamps of its RoundStart and
	// RoundEnd callbacks.
	StartNs int64 `json:"start_ns"`
	WallNs  int64 `json:"wall_ns"`
	Live    int   `json:"live"`
	// Awake is the nodes whose Init/Step ran in the round (see
	// congest.RoundStats: the goroutine engine reports Live).
	Awake int   `json:"awake"`
	Msgs  int64 `json:"msgs"`
	Bits  int64 `json:"bits"`
	// MaxMsgBits is cumulative (a run-level high-water mark, not a delta).
	MaxMsgBits int             `json:"max_msg_bits"`
	Hist       congest.MsgHist `json:"hist"`
}

// EventRec is one engine event, stamped on receipt.
type EventRec struct {
	Seg    int    `json:"seg"`
	Round  int    `json:"round"`
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Value  int64  `json:"value"`
	AtNs   int64  `json:"at_ns"`
	Detail string `json:"detail,omitempty"`
}

// Sink consumes the stamped record stream. Recorder serializes calls, so
// implementations need no locking of their own against the Recorder (but
// Aggregator locks anyway: Replay feeds sinks directly).
type Sink interface {
	Round(r RoundRec)
	Event(e EventRec)
	// Close flushes and releases the sink (closing files it owns).
	Close() error
}

// Segment summarizes one engine run observed by a Recorder.
type Segment struct {
	Rounds  int   // RoundEnd count (= that run's Metrics.Rounds)
	WallNs  int64 // last RoundEnd stamp − first RoundStart stamp
	startNs int64
}

// Recorder implements congest.Observer: it stamps every callback once with
// a monotonic clock and fans the resulting records to its sinks. It is the
// only wall-clock reader in the telemetry path — sinks receive stamps,
// they never take their own. Safe for the concurrent Event emission the
// Observer contract allows.
type Recorder struct {
	start time.Time

	mu    sync.Mutex
	sinks []Sink
	segs  []Segment

	seg       int // current segment; -1 before the first RoundStart
	openRound int // round opened by RoundStart, 0 = none
	openAt    int64
	lastRound int // last delivered round in the current segment

	// Previous RoundEnd cumulatives of the current segment, for deltas.
	prevMsgs int64
	prevBits int64
	prevHist congest.MsgHist
}

var _ congest.Observer = (*Recorder)(nil)

// NewRecorder creates a Recorder fanning out to the given sinks. The
// time.Now here and the time.Since in now() are the telemetry path's only
// wall-clock reads, sanctioned by the nondet analyzer's obs carve-out.
func NewRecorder(sinks ...Sink) *Recorder {
	r := &Recorder{start: time.Now(), seg: -1}
	r.sinks = sinks
	return r
}

// now returns nanoseconds since the Recorder was created (monotonic: the
// time package carries the monotonic reading through Sub).
func (r *Recorder) now() int64 {
	return int64(time.Since(r.start))
}

// RoundStart implements congest.Observer. A RoundStart that cannot be a
// continuation of the current segment — one arrives while a round is still
// open (the previous run ended mid-compute), or with a non-increasing
// round number — begins a new segment; the dangling open round, if any, is
// discarded (the run ended during that compute, so there was no delivery
// to record).
func (r *Recorder) RoundStart(round int) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seg < 0 || r.openRound != 0 || round <= r.lastRound {
		r.seg++
		r.segs = append(r.segs, Segment{startNs: at})
		r.lastRound = 0
		r.prevMsgs, r.prevBits, r.prevHist = 0, 0, congest.MsgHist{}
	}
	r.openRound = round
	r.openAt = at
}

// RoundEnd implements congest.Observer.
func (r *Recorder) RoundEnd(s congest.RoundStats) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seg < 0 {
		// Defensive: a RoundEnd with no prior RoundStart (no engine does
		// this) still lands in a segment rather than being dropped.
		r.seg = 0
		r.segs = append(r.segs, Segment{startNs: at})
	}
	startNs := r.openAt
	if r.openRound == 0 {
		startNs = at
	}
	rec := RoundRec{
		Seg:        r.seg,
		Round:      s.Round,
		StartNs:    startNs,
		WallNs:     at - startNs,
		Live:       s.Live,
		Awake:      s.Awake,
		Msgs:       s.Messages - r.prevMsgs,
		Bits:       s.Bits - r.prevBits,
		MaxMsgBits: s.MaxMsgBits,
	}
	for i := range s.Hist {
		rec.Hist[i] = s.Hist[i] - r.prevHist[i]
	}
	r.prevMsgs, r.prevBits, r.prevHist = s.Messages, s.Bits, s.Hist
	r.lastRound = s.Round
	r.openRound = 0
	seg := &r.segs[r.seg]
	seg.Rounds++
	seg.WallNs = at - seg.startNs
	for _, s := range r.sinks {
		s.Round(rec)
	}
}

// Event implements congest.Observer. Events with Round -1 (emitted outside
// the engine's delivery lock) are attributed to the round in progress.
func (r *Recorder) Event(e congest.Event) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	round := e.Round
	if round < 0 {
		if round = r.openRound; round == 0 {
			round = r.lastRound
		}
	}
	seg := r.seg
	if seg < 0 {
		seg = 0
	}
	rec := EventRec{
		Seg:    seg,
		Round:  round,
		Kind:   e.Kind.String(),
		Node:   e.Node,
		Value:  e.Value,
		AtNs:   at,
		Detail: e.Detail,
	}
	for _, s := range r.sinks {
		s.Event(rec)
	}
}

// Segments returns the engine runs observed so far, in order.
func (r *Recorder) Segments() []Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Segment(nil), r.segs...)
}

// Close closes every sink, returning the first error.
func (r *Recorder) Close() error {
	r.mu.Lock()
	sinks := r.sinks
	r.sinks = nil
	r.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FillLedgerWall attributes the Recorder's segment wall times to the
// ledger's measured phases: the i-th segment with deliveries maps to the
// i-th phase with measured rounds, in order — pipelines record phases in
// execution order and every measured phase is one engine run. Charged-only
// phases (structural simulation, no engine run) are skipped on the ledger
// side; delivery-less segments are skipped on the recorder side. Purely
// advisory: mismatched counts fill the prefix that does line up.
func FillLedgerWall(l *congest.Ledger, r *Recorder) {
	segs := r.Segments()
	si := 0
	for pi, p := range l.Phases() {
		if p.Rounds == 0 {
			continue
		}
		for si < len(segs) && segs[si].Rounds == 0 {
			si++
		}
		if si >= len(segs) {
			return
		}
		l.SetPhaseWall(pi, segs[si].WallNs)
		si++
	}
}
