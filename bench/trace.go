package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"congestds/internal/congest"
	"congestds/internal/obs"
)

// span is one timed call the harness made into a layer, or one engine
// round reported through the existing observer hooks. Spans of one request
// share Req; Parent links a call to the call that caused it. Times are
// nanoseconds since the tracer started. Units counts the work the call did
// where that has a natural unit (edges for graph.Load).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int64  `json:"units,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// engineLane is the Chrome-trace lane engine rounds are drawn on; client
// and harness spans use lanes 0..clients-1.
const engineLane = 99

// tracer keeps spans in memory until the pass ends. A nil *tracer is the
// untraced pass: every method is a no-op, so the call sites are the same in
// both passes.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named after the public call it wraps.
func (t *tracer) start(name string, parent, req int64, lane int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{ID: t.next.Add(1), Parent: parent, Req: req, Lane: lane, Name: name, Start: t.now()}}
}

// id is the span's identifier, 0 in the untraced pass.
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() { o.endUnits(0) }

// endUnits records the span with the work it did.
func (o openSpan) endUnits(units int64) {
	if o.t == nil {
		return
	}
	o.s.End = o.t.now()
	o.s.Units = units
	o.t.add(o.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// engineSink is the obs.Sink the traced pass attaches to every engine run,
// through mds/family Params.Observer for the batch workloads and
// serve.Config.RunSink for the serving ones. It folds the per-round records
// into the congest-layer metrics and turns each round into a span under the
// call that ran the engine (parent), when the harness knows that call.
type engineSink struct {
	tr     *tracer
	parent atomic.Int64

	mu        sync.Mutex
	runs      int
	rounds    int
	msgs      int64
	bits      int64
	liveSum   int64
	wallNs    []float64
	sweepOpen map[int][]int64 // worker → start stamps awaiting their sweep-end
	sweepNs   int64
	arenaPeak int64
}

var _ obs.Sink = (*engineSink)(nil)

func newEngineSink(tr *tracer) *engineSink {
	return &engineSink{tr: tr, sweepOpen: map[int][]int64{}}
}

// observer returns a fresh obs.Recorder feeding the sink, for one call
// into an algorithm package.
func (s *engineSink) observer() congest.Observer { return obs.NewRecorder(s) }

// Round implements obs.Sink.
func (s *engineSink) Round(r obs.RoundRec) {
	end := s.tr.now()
	s.tr.add(span{ID: s.tr.next.Add(1), Parent: s.parent.Load(), Lane: engineLane,
		Name: "congest.round", Start: end - r.WallNs, End: end})
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Round == 1 {
		s.runs++
	}
	s.rounds++
	s.msgs += r.Msgs
	s.bits += r.Bits
	s.liveSum += int64(r.Live)
	s.wallNs = append(s.wallNs, float64(r.WallNs))
}

// Event implements obs.Sink. Sweep start and end stamps come from the same
// Recorder, so their difference is a worker's busy time for one round;
// concurrent runs (two serve misses at once) pair up per worker in arrival
// order, which keeps the busy total right.
func (s *engineSink) Event(e obs.EventRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case "sweep-start":
		s.sweepOpen[e.Node] = append(s.sweepOpen[e.Node], e.AtNs)
	case "sweep-end":
		if q := s.sweepOpen[e.Node]; len(q) > 0 {
			s.sweepNs += e.AtNs - q[0]
			s.sweepOpen[e.Node] = q[1:]
		}
	case "arena":
		s.arenaPeak = max(s.arenaPeak, e.Value)
	}
}

// Close implements obs.Sink; the sink outlives the Recorders that close it.
func (s *engineSink) Close() error { return nil }

// layers returns the congest-layer metrics of everything the sink saw.
func (s *engineSink) layers() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var wall float64
	for _, w := range s.wallNs {
		wall += w
	}
	m := map[string]float64{
		"congest.rounds":            float64(s.rounds),
		"congest.msgs":              float64(s.msgs),
		"congest.bits":              float64(s.bits),
		"congest.round_wall_p50_us": percentile(s.wallNs, 50) / 1e3,
		"congest.round_wall_p99_us": percentile(s.wallNs, 99) / 1e3,
		"congest.arena_peak_bytes":  float64(s.arenaPeak),
	}
	if s.runs > 0 {
		m["congest.engine_ms"] = wall / float64(s.runs) / 1e6
	}
	if wall > 0 {
		m["congest.node_rounds_per_s"] = float64(s.liveSum) / (wall / 1e9)
		m["congest.sweep_busy_pct"] = 100 * float64(s.sweepNs) / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	return m
}

// callStats summarizes the spans of one name: how many, the median
// duration and the median self time (duration minus the part its child
// spans cover), in nanoseconds.
type callStats struct {
	Count      int
	P50, P50Se float64
	SelfTotal  float64
}

// spanStats groups spans by name, computing each span's self time from its
// children.
func spanStats(spans []span) map[string]*callStats {
	child := map[int64]int64{}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				child[s.Parent] += hi - lo
			}
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		self := max(s.dur()-child[s.ID], 0)
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], float64(self))
	}
	out := map[string]*callStats{}
	for name, d := range durs {
		cs := &callStats{Count: len(d), P50: percentile(d, 50), P50Se: percentile(selfs[name], 50)}
		for _, v := range selfs[name] {
			cs.SelfTotal += v
		}
		out[name] = cs
	}
	return out
}

// printSpanTable prints the per-call table of a traced pass.
func printSpanTable(w io.Writer, stats map[string]*callStats) {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s %12s\n", "span", "count", "p50 ms", "p50 self ms", "self total s")
	for _, name := range names {
		cs := stats[name]
		fmt.Fprintf(w, "  %-24s %8d %12.4f %12.4f %12.4f\n", name, cs.Count, cs.P50/1e6, cs.P50Se/1e6, cs.SelfTotal/1e9)
	}
}

// writeTrace writes a pass's spans to dir as <workload>.spans.jsonl and as
// a Chrome trace-event file, <workload>.trace.json (open it at
// chrome://tracing or ui.perfetto.dev).
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := writeLines(filepath.Join(dir, workload+".spans.jsonl"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeLines(filepath.Join(dir, workload+".trace.json"), func(w *bufio.Writer) error {
		type event struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		}
		w.WriteString("[")
		for i, s := range spans {
			if i > 0 {
				w.WriteString(",\n")
			}
			b, err := json.Marshal(event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: 1, Tid: s.Lane, Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req}})
			if err != nil {
				return err
			}
			w.Write(b)
		}
		_, err := w.WriteString("]\n")
		return err
	})
}

// writeLines creates path and hands fn a buffered writer, checking the
// flush and close.
func writeLines(path string, fn func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
