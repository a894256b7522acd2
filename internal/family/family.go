// Package family is the algorithm registry: the shared
// solve → certify → report plumbing every dominating-set algorithm plugs
// into — the source paper's Theorems 1.1/1.2, Corollary 1.3 and the
// Theorem 1.4 CDS transform, the host-side greedy and exact baselines, and
// the families beyond the paper (arbmds, mcds). A Family bundles a Solve
// function with the certificate its outputs are checked against, in the
// uniform shape cmd/mdsrun, cmd/mdsd and the experiment tables
// (internal/experiments) dispatch on — so adding a family
// (the recipe arbmds and mcds established, see docs/ARCHITECTURE.md) is:
// implement the algorithm package, register it here, add a conformance
// case and an experiment table. Registered families are automatically
// listed in mdsrun's -algo help, in the unknown-algorithm error and in
// mdsd's servable algorithms.
package family

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"congestds/internal/congest"
	"congestds/internal/graph"
)

// Params is the uniform parameter set a family's Solve receives; families
// ignore the fields they have no use for.
type Params struct {
	// Eps is the approximation/decay parameter (zero: the family default).
	Eps float64
	// Sim selects the congest execution engine (zero: congest.EngineStepped).
	Sim congest.Engine
	// MaxRounds clamps the simulated run (zero: simulator default).
	MaxRounds int
	// DiamBound is the known diameter upper bound for families that run an
	// orientation phase (zero: the family's safe default, typically n).
	DiamBound int
	// Deadline, when positive, bounds each simulated run's wall clock;
	// overruns surface as congest.ErrDeadline (see congest.Config.Deadline).
	Deadline time.Duration
	// Ctx, when non-nil, cancels the family's simulated runs: one context
	// bounds the whole solve, even when it spans several runs.
	Ctx context.Context
	// Observer, when non-nil, receives per-round telemetry from the
	// family's simulated runs (see congest.Observer); attaching one never
	// changes the outcome.
	Observer congest.Observer
}

// Key returns the canonical equality key of the parameters that determine
// a family's certified output: Eps, MaxRounds and DiamBound. The
// execution-context fields — Sim, Deadline, Ctx, Observer — are
// deliberately excluded: they decide whether and how a run executes, never
// what a successful run produces (the engine choice and observer attachment
// are byte-identity-preserving by tested contract: see
// internal/congest/conformance). Two Params with equal Keys applied to the
// same graph and family yield identical Results, which is what makes Key a
// cache key for certified solutions.
//
// Key does not know family defaults: Eps=0 and Eps=0.5 produce different
// Keys even though arbmds treats them identically. Canonicalize through
// Family.Canon first when that collision is wanted (a solution cache
// always wants it).
func (p Params) Key() string {
	return fmt.Sprintf("eps=%s maxrounds=%d diam=%d",
		strconv.FormatFloat(p.Eps, 'g', -1, 64), p.MaxRounds, p.DiamBound)
}

// Certificate is what a family's verification layer returns: a printable
// verdict. verify.ArbCertificate and verify.CDSCertificate satisfy it
// directly; the source paper's algorithms and the baselines use the ratio
// certificate in register.go.
type Certificate interface {
	fmt.Stringer
	// Passed reports whether the output met the family's claim.
	Passed() bool
}

// Result is a family run in the uniform shape.
type Result struct {
	// Set is the family's solution (a dominating set, or a connected
	// dominating set for CDS families), ascending.
	Set []int
	// DS is the underlying dominating set a CDS family (cds, mcds) extended
	// into Set; nil for the other families.
	DS []int
	// Rounds is the synchronous round count: measured engine rounds, plus
	// the charged rounds of structurally simulated phases for families
	// that keep a Ledger. Host-side baselines report 0.
	Rounds int
	// Cert is the family's certificate over Set (never nil).
	Cert Certificate
	// Notes are extra human-readable lines for command-line output.
	Notes []string
	// Ledger is the per-phase cost account of families that keep one (the
	// source paper's pipelines); nil for the others.
	Ledger *congest.Ledger
}

// Family is one registered algorithm family.
type Family struct {
	// Name is the -algo name.
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// NeedsDiam marks families that consume Params.DiamBound, so callers
	// only pay for a host-side diameter estimate (a BFS) when the family
	// will use it.
	NeedsDiam bool
	// DefaultEps is the value the family's Solve substitutes for a zero
	// Params.Eps. Canon uses it so that a zero-valued and a
	// default-filled parameter set produce the same Key.
	DefaultEps float64
	// Solve runs the family on g and certifies the output.
	Solve func(g *graph.Graph, p Params) (*Result, error)
}

// Canon returns p with the fields the family would normalize anyway folded
// to their canonical spelling, so that parameter sets the family treats
// identically collide under Params.Key: a zero Eps becomes DefaultEps
// (exactly the substitution the registered Solve adapters perform), a
// DiamBound on a family that never reads one is dropped, and negative
// round clamps (no clamp) become zero. A negative Eps or DiamBound stays
// as it is, so the families that reject it still do. Canon changes no
// execution-context field and never changes what Solve computes —
// Solve(g, p) and Solve(g, f.Canon(p)) produce identical Results, which
// TestCanonPreservesSolve pins per registered family.
func (f Family) Canon(p Params) Params {
	if p.Eps == 0 {
		p.Eps = f.DefaultEps
	}
	if !f.NeedsDiam {
		p.DiamBound = 0
	}
	if p.MaxRounds < 0 {
		p.MaxRounds = 0
	}
	return p
}

var (
	mu       sync.Mutex
	registry = map[string]Family{}
)

// Register adds a family. Duplicate names panic: they are a wiring bug.
func Register(f Family) {
	mu.Lock()
	defer mu.Unlock()
	if f.Name == "" || f.Solve == nil {
		panic("family: Register with empty name or nil Solve")
	}
	if _, dup := registry[f.Name]; dup {
		panic("family: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// Names returns the sorted registered family names.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Get returns the named family. The error for an unknown name lists the
// registered names, mirroring graph.Named.
func Get(name string) (Family, error) {
	mu.Lock()
	f, ok := registry[name]
	mu.Unlock()
	if !ok {
		return Family{}, fmt.Errorf("family: unknown algorithm %q (algorithms: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f, nil
}
