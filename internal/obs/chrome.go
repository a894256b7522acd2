package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Chrome exports the record stream in the Chrome trace-event format
// (load the file at chrome://tracing or https://ui.perfetto.dev). Layout:
// each segment is a "process" (pid = segment); round delivery spans render
// on tid 0, and the stepped engine's per-worker sweep spans each get their
// own lane (tid = worker+1), so chunk-steal imbalance is visible as ragged
// lane ends. Other events render as instants on the emitting lane.
type Chrome struct {
	bw    *bufio.Writer
	c     io.Closer
	first bool
	err   error
	// open holds receipt stamps of sweep-start events awaiting their
	// sweep-end, keyed by (seg, worker).
	open map[[2]int]int64
}

var _ Sink = (*Chrome)(nil)

// NewChrome returns a Chrome trace sink writing to w. If w is also an
// io.Closer (a file), Close closes it after finishing the JSON array.
func NewChrome(w io.Writer) *Chrome {
	c := &Chrome{bw: bufio.NewWriter(w), first: true, open: map[[2]int]int64{}}
	if cl, ok := w.(io.Closer); ok {
		c.c = cl
	}
	c.raw("[")
	return c
}

func (c *Chrome) raw(s string) {
	if c.err == nil {
		_, c.err = c.bw.WriteString(s)
	}
}

// chromeEvent is one trace-event record. Timestamps and durations are in
// microseconds per the format; float64 keeps sub-microsecond round times
// from collapsing to zero-width spans.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func (c *Chrome) emit(e chromeEvent) {
	if c.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		c.err = err
		return
	}
	if !c.first {
		c.raw(",\n")
	}
	c.first = false
	_, c.err = c.bw.Write(b)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// Round implements Sink: a complete "X" span on the segment's round lane.
func (c *Chrome) Round(r RoundRec) {
	c.emit(chromeEvent{
		Name: fmt.Sprintf("round %d", r.Round),
		Ph:   "X",
		Ts:   us(r.StartNs),
		Dur:  us(r.WallNs),
		Pid:  r.Seg,
		Tid:  0,
		Args: map[string]any{
			"live":  r.Live,
			"awake": r.Awake,
			"msgs":  r.Msgs,
			"bits":  r.Bits,
		},
	})
}

// Event implements Sink: sweep start/end pairs become worker-lane spans,
// everything else an instant event.
func (c *Chrome) Event(e EventRec) {
	switch e.Kind {
	case "sweep-start":
		c.open[[2]int{e.Seg, e.Node}] = e.AtNs
		return
	case "sweep-end":
		key := [2]int{e.Seg, e.Node}
		start, ok := c.open[key]
		if !ok {
			start = e.AtNs // lone end (trace truncation): zero-width span
		}
		delete(c.open, key)
		c.emit(chromeEvent{
			Name: fmt.Sprintf("sweep r%d", e.Round),
			Ph:   "X",
			Ts:   us(start),
			Dur:  us(e.AtNs - start),
			Pid:  e.Seg,
			Tid:  e.Node + 1,
			Args: map[string]any{"chunks": e.Value},
		})
		return
	}
	tid := 0
	if e.Node >= 0 {
		tid = e.Node + 1
	}
	args := map[string]any{"value": e.Value, "round": e.Round}
	if e.Detail != "" {
		args["detail"] = e.Detail
	}
	c.emit(chromeEvent{
		Name: e.Kind,
		Ph:   "i",
		Ts:   us(e.AtNs),
		Pid:  e.Seg,
		Tid:  tid,
		S:    "t",
		Args: args,
	})
}

// Close terminates the JSON array, flushes, and closes the underlying
// writer if the sink owns one.
func (c *Chrome) Close() error {
	c.raw("]\n")
	if err := c.bw.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	if c.c != nil {
		if err := c.c.Close(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}
