package derand

import (
	"math"
	"slices"
	"testing"

	"congestds/internal/coloring"
	"congestds/internal/congest"
	"congestds/internal/decomp"
	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/kwise"
	"congestds/internal/rounding"
)

// uniformFDS builds a 1/f-fractional FDS; feasible on graphs with minimum
// inclusive degree ≥ f.
func uniformFDS(g *graph.Graph, f uint64) *fractional.CFDS {
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(1, f, true) // round up so f values sum to ≥ 1
	}
	return fds
}

// feasibleFDS builds a feasible fractional FDS on any graph: every node gets
// 1/(deg_min_neighbourhood) — here simply 1/Δ̃ plus enough: use 1/minIncDeg.
func feasibleFDS(g *graph.Graph) *fractional.CFDS {
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	minInc := g.N() + 1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v) + 1; d < minInc {
			minInc = d
		}
	}
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(1, uint64(minInc), true)
	}
	return fds
}

// participating marks the sites of inst that flip a coin (Lemma 3.10's S).
func participating(inst *rounding.Instance) []bool {
	part := make([]bool, len(inst.X))
	for j := range part {
		part[j] = !inst.Deterministic(j)
	}
	return part
}

func lnDelta(ctx fixpoint.Ctx, g *graph.Graph) fixpoint.Value {
	return ctx.FromFloat(math.Log(float64(g.MaxDegree() + 1 + 1)))
}

func TestOneShotBipartiteReducesLeftDegree(t *testing.T) {
	g := graph.Complete(10) // 1/4-fractional is feasible (Δ̃=10)
	fds := uniformFDS(g, 4)
	inst, err := OneShotBipartite(g, fds, 4, lnDelta(fds.Ctx, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	for v, ms := range inst.Members {
		if len(ms) > 4 {
			t.Errorf("constraint %d has %d members", v, len(ms))
		}
	}
}

func TestOneShotBipartiteRejectsInfeasibleInput(t *testing.T) {
	g := graph.Path(4)
	ctx := fractional.ScaleFor(4)
	fds := fractional.NewFDS(ctx, 4) // all-zero: infeasible
	if _, err := OneShotBipartite(g, fds, 2, ctx.One()); err == nil {
		t.Error("infeasible input accepted")
	}
}

func TestFactorTwoBipartiteSplitSizes(t *testing.T) {
	g := graph.Complete(30)
	fds := uniformFDS(g, 30) // all light for r = 40: (1+ε)/30 ≈ 0.042 < 2/40 = 0.05
	s := 5
	inst, err := FactorTwoBipartite(g, fds, 0.25, 40, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// All members are light, so every split constraint has between s and 2s
	// members.
	for i, ms := range inst.Members {
		if len(ms) < s || len(ms) > 2*s {
			t.Errorf("constraint %d size %d outside [%d,%d]", i, len(ms), s, 2*s)
		}
	}
}

func TestFactorTwoBipartiteKeepsHeavyTogether(t *testing.T) {
	g := graph.Star(12)
	ctx := fractional.ScaleFor(12)
	fds := fractional.NewFDS(ctx, 12)
	fds.X[0] = ctx.One() // the hub is heavy
	for v := 1; v < 12; v++ {
		fds.X[v] = ctx.FromRatio(1, 100, false) // light
	}
	inst, err := FactorTwoBipartite(g, fds, 0.25, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The hub keeps its value (p = 1).
	if !inst.Deterministic(0) {
		t.Error("heavy hub should not participate")
	}
	if inst.Deterministic(1) {
		t.Error("light leaf should participate")
	}
}

// End-to-end Engine II on the one-shot bipartite instance: the result is an
// integral dominating set of size within the Phi bound.
func TestEngineIIOneShotEndToEnd(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		g := graph.GNPConnected(40, 0.3, seed) // dense: ln(Δ̃)·x' stays below 1
		fds := feasibleFDS(g)
		f := uint64(g.N()) // any F ≥ 1/fractionality works for the reduction
		inst, err := OneShotBipartite(g, fds, f, lnDelta(fds.Ctx, g))
		if err != nil {
			t.Fatal(err)
		}
		proc, err := rounding.NewProcess(inst)
		if err != nil {
			t.Fatal(err)
		}
		phi := inst.Ctx.Float(proc.Phi())
		part := participating(inst)
		col := coloring.Distance2Bipartite(g.N(), inst.Members, part, g.IDs())
		if ok, pair := coloring.Validate(col, inst.Members, part); !ok {
			t.Fatalf("coloring invalid: %v", pair)
		}
		var ledger congest.Ledger
		out, colors := ByColoring(proc, g.IDs(), &ledger, false)
		if colors != col.NumColors {
			t.Errorf("ByColoring used %d colors, the coloring has %d", colors, col.NumColors)
		}
		res := FDSFromOutcome(inst.Ctx, out)
		if !res.Integral() {
			t.Error("one-shot output not integral")
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("not dominating: %v", err)
		}
		if size := res.SizeFloat(); size > phi*1.05+0.5 {
			t.Errorf("seed %d: size %.3f exceeds Phi %.3f", seed, size, phi)
		}
		if slices.Contains(part, true) && ledger.Metrics().ChargedRounds <= 0 {
			t.Error("no rounds charged")
		}
		// The colouring is charged first, then the coin fixing, each
		// conflict round at Lemma 3.12's Δ_L.
		leftDegree := 0
		for _, ms := range inst.Members {
			leftDegree = max(leftDegree, len(ms))
		}
		want := []congest.Phase{
			{Name: "derand/d2-coloring", Charged: col.Rounds * leftDegree},
			{Name: "derand/engineII-colors", Charged: col.NumColors * (leftDegree + 2)},
		}
		if got := ledger.Phases(); !slices.Equal(got, want) {
			t.Errorf("ledger rows %+v, want %+v", got, want)
		}
	}
}

// End-to-end Engine II on factor-two: fractionality doubles (to ≥ 2/r) and
// the result stays feasible.
func TestEngineIIFactorTwoEndToEnd(t *testing.T) {
	g := graph.GNPConnected(36, 0.2, 3)
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	// Start from a feasible 1/r-fractional solution.
	r := uint64(2 * (g.MaxDegree() + 1))
	minInc := g.N()
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v) + 1; d < minInc {
			minInc = d
		}
	}
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(1, uint64(minInc), true)
	}
	if err := fds.Check(g); err != nil {
		t.Fatal(err)
	}
	inst, err := FactorTwoBipartite(g, fds, 0.25, r, 4)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := rounding.NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ByColoring(proc, g.IDs(), nil, false)
	res := FDSFromOutcome(ctx, out)
	if err := res.Check(g); err != nil {
		t.Fatalf("factor-two output infeasible: %v", err)
	}
	// Fractionality improved: every nonzero value is ≥ min(2/r, old 2·min).
	oldFrac := ctx.Float(fds.Fractionality())
	newFrac := ctx.Float(res.Fractionality())
	if newFrac < 1.9*oldFrac && newFrac < 0.99*ctx.Float(ctx.FromRatio(2, r, false)) {
		t.Errorf("fractionality did not double: old %v new %v (2/r=%v)",
			oldFrac, newFrac, 2.0/float64(r))
	}
}

// Engine I end-to-end: one-shot on the plain graph instance with a 2-hop
// decomposition.
func TestEngineIOneShotEndToEnd(t *testing.T) {
	for _, seed := range []uint64{2, 7} {
		g := graph.GNPConnected(40, 0.12, seed)
		fds := feasibleFDS(g)
		inst := rounding.OneShotOnGraph(g, fds, lnDelta(fds.Ctx, g))
		proc, err := rounding.NewProcess(inst)
		if err != nil {
			t.Fatal(err)
		}
		phi := inst.Ctx.Float(proc.Phi())
		d, err := decomp.Build(g, decomp.Params{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(g); err != nil {
			t.Fatal(err)
		}
		var ledger congest.Ledger
		out, err := ByDecomposition(proc, d, g, &ledger)
		if err != nil {
			t.Fatal(err)
		}
		res := FDSFromOutcome(inst.Ctx, out)
		if !res.Integral() {
			t.Error("output not integral")
		}
		if err := res.Check(g); err != nil {
			t.Fatalf("not dominating: %v", err)
		}
		if size := res.SizeFloat(); size > phi*1.05+0.5 {
			t.Errorf("size %.3f exceeds Phi %.3f", size, phi)
		}
	}
}

func TestEngineIRejectsBadInputs(t *testing.T) {
	g := graph.Path(6)
	fds := feasibleFDS(g)
	inst := rounding.OneShotOnGraph(g, fds, lnDelta(fds.Ctx, g))
	proc, _ := rounding.NewProcess(inst)
	d1, _ := decomp.Build(g, decomp.Params{K: 1})
	if _, err := ByDecomposition(proc, d1, g, nil); err == nil {
		t.Error("K=1 decomposition accepted")
	}
	other := graph.Path(7)
	d2, _ := decomp.Build(other, decomp.Params{K: 2})
	if _, err := ByDecomposition(proc, d2, other, nil); err == nil {
		t.Error("mismatched graph accepted")
	}
}

func TestEngineIIDeterministic(t *testing.T) {
	g := graph.GNPConnected(30, 0.2, 4)
	run := func() []int {
		fds := feasibleFDS(g)
		inst, err := OneShotBipartite(g, fds, uint64(g.N()), lnDelta(fds.Ctx, g))
		if err != nil {
			t.Fatal(err)
		}
		proc, err := rounding.NewProcess(inst)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := ByColoring(proc, g.IDs(), nil, true)
		return FDSFromOutcome(inst.Ctx, out).Set()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic set")
		}
	}
}

// Lemma 3.4 mechanism demo: shared k-wise seed fixed bit by bit by exact
// conditional expectations; the realized size must not exceed the expected
// size over a uniformly random seed.
func TestSharedSeedDerandomization(t *testing.T) {
	g := graph.Cycle(8)
	fds := uniformFDS(g, 3) // inclusive degree 3 ⇒ feasible
	if err := fds.Check(g); err != nil {
		t.Fatal(err)
	}
	inst := rounding.OneShotOnGraph(g, fds, fds.Ctx.FromFloat(math.Log(4)))
	gen, err := kwise.New(2, 8, 4) // m=3 field, 4-bit values → 2·2·3 = 12 seed bits
	if err != nil {
		t.Fatal(err)
	}
	if gen.SeedBits() > 20 {
		t.Fatalf("seed too large for demo: %d bits", gen.SeedBits())
	}
	seed, out, err := DerandomizeSharedSeed(inst, gen, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(seed) != gen.SeedWords() {
		t.Fatalf("seed words %d", len(seed))
	}
	// Expected size over all seeds (exhaustive).
	ctx := inst.Ctx
	var total float64
	count := 0
	words := gen.SeedWords()
	m := int(gen.FieldM())
	var rec func(i int, s []uint64)
	all := make([]uint64, words)
	rec = func(i int, s []uint64) {
		if i == words {
			o := inst.Execute(func(j int) bool { return gen.Coin(s, j, uint64(inst.P[j])) })
			total += ctx.Float(o.Size(ctx))
			count++
			return
		}
		for v := uint64(0); v < 1<<m; v++ {
			s[i] = v
			rec(i+1, s)
		}
	}
	rec(0, all)
	mean := total / float64(count)
	realized := ctx.Float(out.Size(ctx))
	if realized > mean+1e-6 {
		t.Errorf("derandomized size %.4f exceeds E[size] %.4f", realized, mean)
	}
	// The result is still a dominating set.
	res := FDSFromOutcome(ctx, out)
	if err := res.Check(g); err != nil {
		t.Errorf("seed-mode output infeasible: %v", err)
	}
}

func TestSharedSeedRejectsBigSeeds(t *testing.T) {
	g := graph.Cycle(6)
	fds := uniformFDS(g, 3)
	inst := rounding.OneShotOnGraph(g, fds, fds.Ctx.One())
	gen, err := kwise.New(8, 64, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DerandomizeSharedSeed(inst, gen, 20); err == nil {
		t.Error("oversized seed accepted")
	}
}
