package congest

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Ledger accumulates the cost of an algorithm pipeline. Phases that run on a
// Network contribute measured Metrics; phases that are structurally
// simulated (see docs/ARCHITECTURE.md#substitutions, substitution 1: e.g.
// leader-serialized network decomposition) charge rounds explicitly with a
// reason, so the total round
// count of a pipeline remains honest and auditable.
type Ledger struct {
	metrics Metrics
	phases  []Phase
}

// Phase records the cost of one pipeline stage.
type Phase struct {
	Name    string
	Rounds  int // measured engine rounds
	Charged int // structurally charged rounds
	Bits    int64
	Msgs    int64
	// WallNs is the phase's wall-clock duration in nanoseconds, filled in
	// after the fact by the observability layer (obs.FillLedgerWall) — the
	// engines themselves are deterministic packages and never read the
	// clock, so RecordRun always leaves it zero. Zero means unmeasured.
	WallNs int64
}

// RecordRun merges metrics measured by Network.Run under the given phase
// name. Charged rounds carried by the metrics (pipeline stages that fold
// structural simulation into a measured run) land in the phase row too, so
// the per-phase breakdown adds up to the totals.
func (l *Ledger) RecordRun(name string, m Metrics) {
	l.metrics.Add(m)
	l.phases = append(l.phases, Phase{
		Name:    name,
		Rounds:  m.Rounds,
		Charged: m.ChargedRounds,
		Bits:    m.Bits,
		Msgs:    m.Messages,
	})
}

// Charge adds structurally simulated rounds under the given phase name.
func (l *Ledger) Charge(name string, rounds int) {
	if rounds < 0 {
		rounds = 0
	}
	l.metrics.ChargedRounds += rounds
	l.phases = append(l.phases, Phase{Name: name, Charged: rounds})
}

// Metrics returns the accumulated totals.
func (l *Ledger) Metrics() Metrics { return l.metrics }

// SetPhaseWall records the wall-clock duration of phase i (by Phases
// index). Out-of-range indices and negative durations are ignored: wall
// attribution is advisory telemetry, never a reason to fail a pipeline.
func (l *Ledger) SetPhaseWall(i int, ns int64) {
	if i < 0 || i >= len(l.phases) || ns < 0 {
		return
	}
	l.phases[i].WallNs = ns
}

// Phases returns the per-phase breakdown in execution order.
func (l *Ledger) Phases() []Phase { return l.phases }

// AppendState appends a self-contained encoding of the ledger (totals and
// per-phase breakdown), so pipelines can fold their ledger into a
// checkpoint's HostState blob and a resumed run reports the same audited
// history as an uninterrupted one.
func (l *Ledger) AppendState(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(l.metrics.Rounds))
	buf = binary.AppendVarint(buf, int64(l.metrics.ChargedRounds))
	buf = binary.AppendVarint(buf, l.metrics.Messages)
	buf = binary.AppendVarint(buf, l.metrics.Bits)
	buf = binary.AppendVarint(buf, int64(l.metrics.MaxMsgBits))
	buf = binary.AppendVarint(buf, int64(l.metrics.BandwidthBits))
	buf = binary.AppendVarint(buf, int64(l.metrics.Model))
	buf = binary.AppendUvarint(buf, math.Float64bits(l.metrics.AvgMsgBits))
	buf = binary.AppendUvarint(buf, uint64(len(l.phases)))
	for _, p := range l.phases {
		buf = binary.AppendUvarint(buf, uint64(len(p.Name)))
		buf = append(buf, p.Name...)
		buf = binary.AppendVarint(buf, int64(p.Rounds))
		buf = binary.AppendVarint(buf, int64(p.Charged))
		buf = binary.AppendVarint(buf, p.Bits)
		buf = binary.AppendVarint(buf, p.Msgs)
		buf = binary.AppendVarint(buf, p.WallNs)
	}
	return buf
}

// RestoreState replaces the ledger's contents with the state AppendState
// encoded, rejecting malformed input with an error (never a panic):
// checkpoint blobs cross a process boundary.
func (l *Ledger) RestoreState(data []byte) error {
	bad := fmt.Errorf("congest: malformed ledger state")
	off := 0
	varint := func() int64 {
		if off < 0 {
			return 0
		}
		var x int64
		x, off = Varint(data, off)
		return x
	}
	var m Metrics
	m.Rounds = int(varint())
	m.ChargedRounds = int(varint())
	m.Messages = varint()
	m.Bits = varint()
	m.MaxMsgBits = int(varint())
	m.BandwidthBits = int(varint())
	m.Model = Model(varint())
	avg, off2 := Uvarint(data, max(off, 0))
	if off < 0 || off2 < 0 {
		return bad
	}
	m.AvgMsgBits = math.Float64frombits(avg)
	off = off2
	count, off2 := Uvarint(data, off)
	if off2 < 0 || count > uint64(len(data)) {
		return bad
	}
	off = off2
	phases := make([]Phase, 0, count)
	for i := uint64(0); i < count; i++ {
		nameLen, o := Uvarint(data, off)
		if o < 0 || nameLen > uint64(len(data)-o) {
			return bad
		}
		var p Phase
		p.Name = string(data[o : o+int(nameLen)])
		off = o + int(nameLen)
		p.Rounds = int(varint())
		p.Charged = int(varint())
		p.Bits = varint()
		p.Msgs = varint()
		p.WallNs = varint()
		if off < 0 {
			return bad
		}
		phases = append(phases, p)
	}
	if off != len(data) {
		return bad
	}
	l.metrics = m
	l.phases = phases
	return nil
}

// String renders a compact per-phase summary. Wall columns appear only
// when the observability layer attributed wall time (see
// obs.FillLedgerWall); untimed ledgers render exactly as before.
func (l *Ledger) String() string {
	var wallTotal int64
	for _, p := range l.phases {
		wallTotal += p.WallNs
	}
	s := fmt.Sprintf("total rounds=%d (measured %d + charged %d), msgs=%d, bits=%d",
		l.metrics.TotalRounds(), l.metrics.Rounds, l.metrics.ChargedRounds,
		l.metrics.Messages, l.metrics.Bits)
	if wallTotal > 0 {
		s += fmt.Sprintf(", wall=%v", time.Duration(wallTotal).Round(time.Microsecond))
	}
	for _, p := range l.phases {
		s += fmt.Sprintf("\n  %-28s rounds=%d charged=%d msgs=%d", p.Name, p.Rounds, p.Charged, p.Msgs)
		if p.WallNs > 0 {
			s += fmt.Sprintf(" wall=%v", time.Duration(p.WallNs).Round(time.Microsecond))
		}
	}
	return s
}
