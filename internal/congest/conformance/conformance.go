// Package conformance is the differential test harness for the congest
// execution engines. Determinism is a paper-level invariant (Section 2: the
// algorithms are deterministic, so the outcome of a run is a pure function
// of the graph, the identifiers and the program), and the package enforces
// it as an engineering contract: every registered Program, run over a
// corpus of generated graphs, must produce byte-identical outputs and
// identical round counts and bandwidth metrics on every engine.
//
// The suite is what makes engine work safe: a scheduler (like the stepped
// engine) is correct exactly when this package cannot tell it apart from
// the reference goroutine engine.
//
// Run it with:
//
//	go test ./internal/congest/conformance [-race] [-short]
package conformance

import (
	"bytes"
	"fmt"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// Case is one Program under differential test. Build constructs the program
// for a concrete graph together with an output function that serializes
// every host-visible result of the run into a canonical byte string; the
// harness compares those bytes across engines. BuildStep is the same
// program ported independently to the stackless StepProgram form; the
// harness additionally runs it via RunStepped on every engine (natively on
// the stepped engine, through the blocking adapter on the goroutine one) and
// requires the same bytes and metrics as the blocking reference.
type Case struct {
	Name      string
	Build     func(g *graph.Graph) (congest.Program, func() []byte)
	BuildStep func(g *graph.Graph) (congest.StepFactory, func() []byte)
}

// cases is the registry, populated by programs.go.
var cases []Case

// Register adds a Case to the suite. Registrations happen at package init;
// tests iterate Cases.
func Register(c Case) { cases = append(cases, c) }

// Cases returns the registered differential cases.
func Cases() []Case { return cases }

// NamedGraph is a corpus entry.
type NamedGraph struct {
	Name string
	G    *graph.Graph
}

// Corpus returns the differential graph corpus: small degenerate
// topologies, structured families, and random families with fixed seeds —
// including disconnected graphs and graphs with isolated nodes. When short
// is true a reduced (but still ≥ 20 graph) corpus is returned so the suite
// stays fast under -race.
func Corpus(short bool) []NamedGraph {
	corpus := []NamedGraph{
		{"single", graph.Path(1)},
		{"pair", graph.Path(2)},
		{"path9", graph.Path(9)},
		{"cycle3", graph.Cycle(3)},
		{"cycle17", graph.Cycle(17)},
		{"star12", graph.Star(12)},
		{"complete8", graph.Complete(8)},
		{"grid5x6", graph.Grid(5, 6)},
		{"torus4x5", graph.Torus(4, 5)},
		{"tree2x3", graph.CompleteTree(2, 3)},
		{"hypercube4", graph.Hypercube(4)},
		{"caterpillar6x3", graph.Caterpillar(6, 3)},
		{"gnp40", graph.GNPConnected(40, 0.1, 1)},
		{"gnp64-sparse", graph.GNPConnected(64, 0.05, 2)},
		{"gnp30-disconnected", graph.GNP(30, 0.06, 3)},
		{"gnp20-isolated", graph.GNP(20, 0.05, 7)},
		{"ba50", graph.BarabasiAlbert(50, 2, 4)},
		{"disk48", graph.UnitDiskConnected(48, 0.25, 5)},
		{"gnp100", graph.GNPConnected(100, 0.04, 6)},
		{"caterpillar4x2", graph.Caterpillar(4, 2)},
	}
	if !short {
		corpus = append(corpus,
			NamedGraph{"grid12x12", graph.Grid(12, 12)},
			NamedGraph{"gnp200", graph.GNPConnected(200, 0.02, 8)},
			NamedGraph{"ba128", graph.BarabasiAlbert(128, 3, 9)},
			NamedGraph{"torus10x10", graph.Torus(10, 10)},
			NamedGraph{"gnp-dense60", graph.GNPConnected(60, 0.25, 10)},
		)
	}
	return corpus
}

// Result is one engine's observation of a run: the program's serialized
// output plus the metrics the engine reported.
type Result struct {
	Output  []byte
	Metrics congest.Metrics
	Err     error
}

// runOn executes the case on one engine and captures the observation.
func runOn(c Case, g *graph.Graph, eng congest.Engine, cfg congest.Config) Result {
	cfg.Engine = eng
	prog, output := c.Build(g)
	m, err := congest.NewNetwork(g, cfg).Run(prog)
	res := Result{Metrics: m, Err: err}
	if err == nil {
		res.Output = output()
	}
	return res
}

// runStepOn executes the case's stepped variant on one engine via
// RunStepped — natively on the stepped engine, through BlockingFromStep on
// the goroutine engine.
func runStepOn(c Case, g *graph.Graph, eng congest.Engine, cfg congest.Config) Result {
	cfg.Engine = eng
	factory, output := c.BuildStep(g)
	m, err := congest.NewNetwork(g, cfg).RunStepped(factory)
	res := Result{Metrics: m, Err: err}
	if err == nil {
		res.Output = output()
	}
	return res
}

// Diff runs the case over the engine × program-form matrix against the
// reference (the blocking program on the goroutine engine): the blocking
// program under EngineStepped too (Run must ignore the engine), plus the
// stepped variant on both engines. It returns a non-nil error describing
// the first divergence: different outputs, different round counts, or
// different bandwidth metrics. A nil error means the engines and program
// forms are indistinguishable on this (case, graph, config) triple.
func Diff(c Case, g *graph.Graph, cfg congest.Config) error {
	ref := runOn(c, g, congest.EngineGoroutine, cfg)
	compare := func(got Result, form string, eng congest.Engine) error {
		if (ref.Err == nil) != (got.Err == nil) {
			return fmt.Errorf("%s %s on %v: error mismatch: goroutine=%v, %v=%v",
				c.Name, form, eng, ref.Err, eng, got.Err)
		}
		if ref.Err != nil {
			// Both failed: the sentinel class (bandwidth, max-rounds, deadline,
			// injected, ... — see congest.SentinelClass) must match, and the
			// failed runs must still report identical progress metrics —
			// Rounds, Messages and Bits tell a caller how far a run got before
			// the failure, so an engine that zeroes (or inflates) them on
			// failure is observable and wrong.
			if rc, gc := congest.SentinelClass(ref.Err), congest.SentinelClass(got.Err); rc != gc {
				return fmt.Errorf("%s %s on %v: sentinel class mismatch: goroutine=%q (%v), %v=%q (%v)",
					c.Name, form, eng, rc, ref.Err, eng, gc, got.Err)
			}
			if err := diffFailureMetrics(ref.Metrics, got.Metrics); err != nil {
				return fmt.Errorf("%s %s on %v (failed run): %w", c.Name, form, eng, err)
			}
			return nil
		}
		if !bytes.Equal(ref.Output, got.Output) {
			return fmt.Errorf("%s %s on %v: output diverges from goroutine engine (%d vs %d bytes)",
				c.Name, form, eng, len(ref.Output), len(got.Output))
		}
		if err := diffMetrics(ref.Metrics, got.Metrics); err != nil {
			return fmt.Errorf("%s %s on %v: %w", c.Name, form, eng, err)
		}
		return nil
	}
	for _, eng := range congest.Engines() {
		if eng != congest.EngineGoroutine {
			if err := compare(runOn(c, g, eng, cfg), "blocking", eng); err != nil {
				return err
			}
		}
		if err := compare(runStepOn(c, g, eng, cfg), "stepped", eng); err != nil {
			return err
		}
	}
	return nil
}

// diffFailureMetrics asserts the progress metrics a failed run reports are
// identical: how many rounds were delivered and what traffic was counted
// before the failure. AvgMsgBits follows from Messages and Bits, so it is
// covered implicitly; MaxMsgBits and the budget fields are compared by the
// full diffMetrics on successful runs.
func diffFailureMetrics(a, b congest.Metrics) error {
	switch {
	case a.Rounds != b.Rounds:
		return fmt.Errorf("rounds %d != %d", a.Rounds, b.Rounds)
	case a.Messages != b.Messages:
		return fmt.Errorf("messages %d != %d", a.Messages, b.Messages)
	case a.Bits != b.Bits:
		return fmt.Errorf("bits %d != %d", a.Bits, b.Bits)
	case a.AvgMsgBits != b.AvgMsgBits:
		return fmt.Errorf("avg message bits %v != %v", a.AvgMsgBits, b.AvgMsgBits)
	}
	return nil
}

// diffMetrics asserts the engine-visible cost model is identical: round
// counts, message counts, bit totals and the largest message must all
// agree.
func diffMetrics(a, b congest.Metrics) error {
	switch {
	case a.Rounds != b.Rounds:
		return fmt.Errorf("rounds %d != %d", a.Rounds, b.Rounds)
	case a.Messages != b.Messages:
		return fmt.Errorf("messages %d != %d", a.Messages, b.Messages)
	case a.Bits != b.Bits:
		return fmt.Errorf("bits %d != %d", a.Bits, b.Bits)
	case a.MaxMsgBits != b.MaxMsgBits:
		return fmt.Errorf("max message bits %d != %d", a.MaxMsgBits, b.MaxMsgBits)
	case a.BandwidthBits != b.BandwidthBits:
		return fmt.Errorf("budget %d != %d", a.BandwidthBits, b.BandwidthBits)
	case a.AvgMsgBits != b.AvgMsgBits:
		return fmt.Errorf("avg message bits %v != %v", a.AvgMsgBits, b.AvgMsgBits)
	}
	return nil
}

// appendInt is the canonical serializer used by the registered programs.
func appendInt(buf []byte, x int64) []byte {
	return congest.AppendVarint(buf, x)
}
