package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// echoStep broadcasts a round-stamped payload every round — the minimal
// traffic-generating program for exercising the telemetry path end to end.
type echoStep struct {
	out    []int64
	rounds int
	acc    int64
}

func (s *echoStep) Init(nd *congest.Node) bool {
	s.acc = nd.ID()
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), s.acc&0x3fff))
	return false
}

func (s *echoStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	for i, msg := range in {
		v, _ := congest.Varint(msg.Payload, 0)
		s.acc = s.acc*31 + v*int64(i+1)
	}
	if round+1 >= s.rounds {
		s.out[nd.V()] = s.acc
		return true
	}
	nd.Broadcast(congest.AppendVarint(nd.PayloadBuf(4), s.acc&0x3fff))
	return false
}

func echoFactory(out []int64, rounds int) congest.StepFactory {
	return func(nd *congest.Node) congest.StepProgram { return &echoStep{out: out, rounds: rounds} }
}

// napStep broadcasts in Init, then sleeps until round V%4+2 and is done
// there, so on the stepped engine most rounds run only some of the live
// nodes: RoundStats.Awake differs from Live.
type napStep struct{ out []int64 }

func (s *napStep) Init(nd *congest.Node) bool {
	nd.Broadcast([]byte{1})
	nd.SleepUntil(nd.V()%4 + 2)
	return false
}

func (s *napStep) Step(nd *congest.Node, round int, in []congest.Incoming) bool {
	s.out[nd.V()] += int64(round*100 + len(in))
	if round >= nd.V()%4+2 {
		return true
	}
	nd.SleepUntil(nd.V()%4 + 2)
	return false
}

func napFactory(out []int64) congest.StepFactory {
	return func(nd *congest.Node) congest.StepProgram { return &napStep{out: out} }
}

// TestRecorderSegmentsAndDeltas drives the Recorder with a synthetic
// two-run callback sequence and checks segment detection, cumulative→delta
// conversion, and the per-segment round counts.
func TestRecorderSegmentsAndDeltas(t *testing.T) {
	agg := NewAggregator()
	r := NewRecorder(agg)
	end := func(round, live int, msgs, bits int64) {
		var h congest.MsgHist
		h[3] = msgs // pretend every message is 4-7 bits
		r.RoundEnd(congest.RoundStats{Round: round, Live: live, Messages: msgs, Bits: bits, Hist: h})
	}
	// Run 1: three rounds, cumulative counters 10/100 → 15/150 → 15/150.
	r.RoundStart(1)
	end(1, 8, 10, 100)
	r.RoundStart(2)
	end(2, 8, 15, 150)
	r.RoundStart(3)
	end(3, 0, 15, 150)
	// Run 2: round numbering restarts — must open a new segment and reset
	// the delta baseline.
	r.RoundStart(1)
	end(1, 4, 7, 70)

	segs := r.Segments()
	if len(segs) != 2 || segs[0].Rounds != 3 || segs[1].Rounds != 1 {
		t.Fatalf("segments = %+v, want rounds 3 and 1", segs)
	}
	if len(agg.rounds) != 4 {
		t.Fatalf("got %d round records, want 4", len(agg.rounds))
	}
	wantMsgs := []int64{10, 5, 0, 7}
	wantBits := []int64{100, 50, 0, 70}
	for i, rec := range agg.rounds {
		if rec.Msgs != wantMsgs[i] || rec.Bits != wantBits[i] {
			t.Errorf("round %d: delta msgs=%d bits=%d, want %d/%d", i, rec.Msgs, rec.Bits, wantMsgs[i], wantBits[i])
		}
		if rec.Hist.Total() != wantMsgs[i] {
			t.Errorf("round %d: hist delta total=%d, want %d", i, rec.Hist.Total(), wantMsgs[i])
		}
	}
	if agg.rounds[3].Seg != 1 {
		t.Errorf("second run's record landed in segment %d, want 1", agg.rounds[3].Seg)
	}
}

// TestRecorderTrailingOpenDiscarded: a RoundStart with no matching
// RoundEnd (the run finished during that compute) contributes no record,
// and the next run still opens a fresh segment.
func TestRecorderTrailingOpenDiscarded(t *testing.T) {
	agg := NewAggregator()
	r := NewRecorder(agg)
	r.RoundStart(1)
	r.RoundEnd(congest.RoundStats{Round: 1, Messages: 2, Bits: 20})
	r.RoundStart(2) // dangling: run ends here
	r.RoundStart(3) // next run — open round forces a new segment
	r.RoundEnd(congest.RoundStats{Round: 3, Messages: 4, Bits: 40})
	segs := r.Segments()
	if len(segs) != 2 || segs[0].Rounds != 1 || segs[1].Rounds != 1 {
		t.Fatalf("segments = %+v, want two one-round segments", segs)
	}
	if len(agg.rounds) != 2 {
		t.Fatalf("got %d records, want 2 (dangling start discarded)", len(agg.rounds))
	}
	if agg.rounds[1].Seg != 1 || agg.rounds[1].Msgs != 4 {
		t.Errorf("second record = %+v, want seg 1 with fresh delta baseline", agg.rounds[1])
	}
}

// TestEventRoundAttribution: Round -1 events resolve to the open round, or
// to the last delivered round when none is open.
func TestEventRoundAttribution(t *testing.T) {
	var got []EventRec
	agg := NewAggregator()
	r := NewRecorder(sinkFunc{onEvent: func(e EventRec) { got = append(got, e) }}, agg)
	r.RoundStart(1)
	r.Event(congest.Event{Kind: congest.EvFault, Round: -1, Node: 2})
	r.RoundEnd(congest.RoundStats{Round: 1})
	r.Event(congest.Event{Kind: congest.EvFault, Round: -1, Node: -1})
	r.Event(congest.Event{Kind: congest.EvArena, Round: 7, Value: 9})
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
	if got[0].Round != 1 || got[0].Kind != "fault" {
		t.Errorf("open-round event = %+v, want round 1", got[0])
	}
	if got[1].Round != 1 {
		t.Errorf("post-delivery event round = %d, want last delivered 1", got[1].Round)
	}
	if got[2].Round != 7 || got[2].Value != 9 {
		t.Errorf("explicit-round event = %+v, want round 7 value 9", got[2])
	}
}

// sinkFunc adapts callbacks to Sink for tests.
type sinkFunc struct {
	onRound func(RoundRec)
	onEvent func(EventRec)
}

func (s sinkFunc) Round(r RoundRec) {
	if s.onRound != nil {
		s.onRound(r)
	}
}
func (s sinkFunc) Event(e EventRec) {
	if s.onEvent != nil {
		s.onEvent(e)
	}
}
func (s sinkFunc) Close() error { return nil }

// TestReplayIdentity is the issue's acceptance property: a live run traced
// to JSONL, replayed through fresh profile and Chrome sinks, reproduces
// the live sinks' output byte for byte — the stamps travel in the records,
// so nothing is re-measured on replay.
//
// It covers a sleeping program too, so the replayed records keep the
// per-round Awake counts: below Live on the stepped engine, equal to it on
// the goroutine engine.
func TestReplayIdentity(t *testing.T) {
	for _, eng := range congest.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			for _, prog := range []string{"echo", "nap"} {
				t.Run(prog, func(t *testing.T) { replayIdentity(t, eng, prog == "nap") })
			}
		})
	}
}

func replayIdentity(t *testing.T, eng congest.Engine, nap bool) {
	g := graph.GNPConnected(60, 0.1, 7)
	var trace, liveChrome bytes.Buffer
	liveAgg := NewAggregator()
	rec := NewRecorder(NewJSONL(&trace), liveAgg, NewChrome(&liveChrome))
	out := make([]int64, g.N())
	factory := echoFactory(out, 6)
	if nap {
		factory = napFactory(out)
	}
	m, err := congest.NewNetwork(g, congest.Config{Engine: eng, Observer: rec}).
		RunStepped(factory)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	liveProfile := liveAgg.Profile()
	if liveProfile.Rounds != m.Rounds {
		t.Errorf("profile rounds=%d, want Metrics.Rounds=%d", liveProfile.Rounds, m.Rounds)
	}
	if liveProfile.Msgs != m.Messages || liveProfile.Bits != m.Bits {
		t.Errorf("profile msgs/bits=%d/%d, want %d/%d", liveProfile.Msgs, liveProfile.Bits, m.Messages, m.Bits)
	}
	if liveProfile.Hist.Total() != m.Messages {
		t.Errorf("hist total=%d, want %d", liveProfile.Hist.Total(), m.Messages)
	}

	replayAgg := NewAggregator()
	var replayChrome bytes.Buffer
	rc := NewChrome(&replayChrome)
	if err := Replay(bytes.NewReader(trace.Bytes()), replayAgg, rc); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("chrome close: %v", err)
	}
	if !reflect.DeepEqual(replayAgg.Profile(), liveProfile) {
		t.Errorf("replayed profile differs from live:\nlive:\n%s\nreplayed:\n%s",
			liveProfile, replayAgg.Profile())
	}
	if got, want := replayChrome.String(), liveChrome.String(); got != want {
		t.Errorf("replayed Chrome trace differs from live (%d vs %d bytes)", len(got), len(want))
	}
	var any []any
	if err := json.Unmarshal(liveChrome.Bytes(), &any); err != nil {
		t.Errorf("Chrome trace is not a JSON array: %v", err)
	}
	if s := liveProfile.String(); !strings.Contains(s, "round wall time") {
		t.Errorf("profile table missing distribution line:\n%s", s)
	}
	var liveSum int64
	for i, r := range liveAgg.rounds {
		liveSum += int64(r.Live)
		if got := replayAgg.rounds[i].Awake; got != r.Awake {
			t.Errorf("round %d: replayed awake %d, live %d", r.Round, got, r.Awake)
		}
		if eng == congest.EngineGoroutine && r.Awake != r.Live {
			t.Errorf("round %d: goroutine engine awake %d, want live %d", r.Round, r.Awake, r.Live)
		}
	}
	if sleeps := eng == congest.EngineStepped && nap; sleeps != (liveProfile.NodeSteps < liveSum) {
		t.Errorf("node-steps %d vs live sum %d: want fewer iff the stepped engine runs a sleeping program",
			liveProfile.NodeSteps, liveSum)
	}
}

// TestFillLedgerWall: segment wall times land on the measured phases, in
// order, skipping charged-only phases, and render in Ledger.String.
func TestFillLedgerWall(t *testing.T) {
	var l congest.Ledger
	l.RecordRun("part1", congest.Metrics{Rounds: 3, Messages: 15, Bits: 150})
	l.Charge("decomposition", 40)
	l.RecordRun("part2", congest.Metrics{Rounds: 1, Messages: 7, Bits: 70})

	r := NewRecorder()
	r.RoundStart(1)
	r.RoundEnd(congest.RoundStats{Round: 1, Messages: 10, Bits: 100})
	r.RoundStart(2)
	r.RoundEnd(congest.RoundStats{Round: 2, Messages: 15, Bits: 150})
	r.RoundStart(3)
	r.RoundEnd(congest.RoundStats{Round: 3, Messages: 15, Bits: 150})
	r.RoundStart(1)
	r.RoundEnd(congest.RoundStats{Round: 1, Messages: 7, Bits: 70})

	FillLedgerWall(&l, r)
	ph := l.Phases()
	if ph[0].WallNs <= 0 || ph[2].WallNs <= 0 {
		t.Errorf("measured phases missing wall time: %+v", ph)
	}
	if ph[1].WallNs != 0 {
		t.Errorf("charged-only phase got wall time %d, want 0", ph[1].WallNs)
	}
	if s := l.String(); !strings.Contains(s, "wall=") {
		t.Errorf("ledger string missing wall column:\n%s", s)
	}
}

// TestReplayErrors pins the failure modes of trace parsing.
func TestReplayErrors(t *testing.T) {
	cases := map[string]string{
		"malformed":    "{not json\n",
		"unknown-type": `{"t":"mystery"}` + "\n",
	}
	for name, in := range cases {
		if err := Replay(strings.NewReader(in), NewAggregator()); err == nil {
			t.Errorf("%s: replay accepted bad input", name)
		}
	}
	if err := Replay(strings.NewReader("\n\n"), NewAggregator()); err != nil {
		t.Errorf("blank lines rejected: %v", err)
	}
}

// TestProfilePercentiles checks the nearest-rank percentile math and the
// top-k ordering on a hand-built distribution.
func TestProfilePercentiles(t *testing.T) {
	agg := NewAggregator()
	for i := 1; i <= 100; i++ {
		agg.Round(RoundRec{Seg: 0, Round: i, WallNs: int64(i) * 1000, Msgs: int64(i)})
	}
	p := agg.Profile()
	if p.P50Ns != 50_000 || p.P90Ns != 90_000 || p.P99Ns != 99_000 || p.MaxNs != 100_000 {
		t.Errorf("percentiles p50=%d p90=%d p99=%d max=%d", p.P50Ns, p.P90Ns, p.P99Ns, p.MaxNs)
	}
	if len(p.Slowest) != topSlow || p.Slowest[0].Round != 100 || p.Slowest[4].Round != 96 {
		t.Errorf("slowest = %+v", p.Slowest)
	}
	// Ties break by (seg, round) ascending.
	agg2 := NewAggregator()
	agg2.Round(RoundRec{Seg: 1, Round: 2, WallNs: 10})
	agg2.Round(RoundRec{Seg: 0, Round: 9, WallNs: 10})
	agg2.Round(RoundRec{Seg: 0, Round: 3, WallNs: 10})
	s := agg2.Profile().Slowest
	if s[0].Seg != 0 || s[0].Round != 3 || s[2].Seg != 1 {
		t.Errorf("tie-break order = %+v", s)
	}
}

// TestChromeSweepPairing: sweep start/end events pair into one worker-lane
// span carrying the chunk count.
func TestChromeSweepPairing(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf)
	c.Event(EventRec{Seg: 0, Round: 1, Kind: "sweep-start", Node: 2, AtNs: 1000})
	c.Event(EventRec{Seg: 0, Round: 1, Kind: "sweep-end", Node: 2, Value: 5, AtNs: 4000})
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("output not a JSON array: %v\n%s", err, buf.String())
	}
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1 paired span:\n%s", len(evs), buf.String())
	}
	e := evs[0]
	if e["ph"] != "X" || e["tid"] != float64(3) || e["dur"] != float64(3) {
		t.Errorf("span = %v, want X span on tid 3 with dur 3µs", e)
	}
}

// TestPercentileNearestRank pins the nearest-rank rule: the q-th
// percentile is the ⌈q/100·n⌉-th smallest sample.
func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    int
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}} {
		if got := Percentile(sorted, tc.q); got != tc.want {
			t.Errorf("Percentile(q=%d) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %d, want 0", got)
	}
}
