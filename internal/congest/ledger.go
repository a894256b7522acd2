package congest

import (
	"fmt"
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
