package rounding

import (
	"math"
	"math/rand/v2"
	"testing"

	"congestds/internal/fixpoint"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/kwise"
)

// uniformFDS returns a 1/F-fractional FDS with every value 1/F on g,
// feasible whenever Δ̃_min ≥ F (e.g. complete graphs or F ≤ min degree+1).
func uniformFDS(g *graph.Graph, f uint64) *fractional.CFDS {
	ctx := fractional.ScaleFor(g.N())
	fds := fractional.NewFDS(ctx, g.N())
	for v := range fds.X {
		fds.X[v] = ctx.FromRatio(1, f, false)
	}
	return fds
}

func TestInstanceValidate(t *testing.T) {
	ctx := fixpoint.Default()
	inst := &Instance{
		Ctx:     ctx,
		X:       []fixpoint.Value{ctx.Half()},
		P:       []fixpoint.Value{ctx.Half()},
		C:       []fixpoint.Value{ctx.One()},
		Members: [][]int32{{0}},
		Owner:   []int32{0},
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := *inst
	bad.P = []fixpoint.Value{ctx.FromFloat(0.25)} // p < x
	if err := bad.Validate(); err == nil {
		t.Error("p < x accepted")
	}
	bad2 := *inst
	bad2.Owner = []int32{5}
	if err := bad2.Validate(); err == nil {
		t.Error("invalid owner accepted")
	}
	bad3 := *inst
	bad3.Members = [][]int32{{7}}
	if err := bad3.Validate(); err == nil {
		t.Error("invalid member accepted")
	}
}

func TestOneShotInstanceShape(t *testing.T) {
	g := graph.Complete(6) // Δ̃ = 6, uniform 1/6 is feasible
	fds := uniformFDS(g, 6)
	ln := fds.Ctx.FromFloat(math.Log(7))
	inst := OneShotOnGraph(g, fds, ln)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if inst.P[v] != inst.X[v] {
			t.Errorf("one-shot p != x at %d", v)
		}
		if inst.Owner[v] != int32(v) {
			t.Errorf("owner wrong at %d", v)
		}
		if len(inst.Members[v]) != g.Degree(v)+1 {
			t.Errorf("members not inclusive at %d", v)
		}
	}
}

func TestFactorTwoInstanceShape(t *testing.T) {
	g := graph.Complete(8)
	ctx := fractional.ScaleFor(8)
	fds := fractional.NewFDS(ctx, 8)
	r := uint64(16)
	for v := range fds.X {
		if v < 4 {
			fds.X[v] = ctx.FromRatio(1, r, false) // small: participates
		} else {
			fds.X[v] = ctx.FromRatio(1, 2, false) // large: keeps value
		}
	}
	inst := FactorTwoOnGraph(g, fds, 0.25, r)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if inst.P[v] != ctx.Half() {
			t.Errorf("small node %d should participate (p=1/2), got %s", v, ctx.String(inst.P[v]))
		}
	}
	for v := 4; v < 8; v++ {
		if inst.P[v] != ctx.One() {
			t.Errorf("large node %d should keep its value", v)
		}
	}
}

// Lemma 3.1 property 1: the output of the process is always feasible
// (every constraint covered after phase 2), for arbitrary coins.
func TestProcessAlwaysFeasible(t *testing.T) {
	g := graph.GNPConnected(24, 0.2, 5)
	fds := uniformFDS(g, 4)
	ln := fds.Ctx.FromFloat(math.Log(float64(g.MaxDegree() + 1)))
	inst := OneShotOnGraph(g, fds, ln)
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		out := inst.Execute(func(j int) bool { return r.IntN(2) == 0 })
		// Verify constraints on the outcome.
		for i, ms := range inst.Members {
			var cov fixpoint.Value
			for _, j := range ms {
				cov = inst.Ctx.Add(cov, out.Values[j])
			}
			if cov < inst.C[i] {
				t.Fatalf("trial %d: constraint %d uncovered after phase 2", trial, i)
			}
		}
	}
}

// Lemma 3.1 property 2 (empirical): mean outcome size ≈ A + Σ Pr(E_v)·1,
// and at most the Phi() bound on average.
func TestProcessExpectedSizeMatchesPhi(t *testing.T) {
	g := graph.GNPConnected(20, 0.3, 7)
	fds := uniformFDS(g, 3)
	ln := fds.Ctx.FromFloat(math.Log(float64(g.MaxDegree() + 1)))
	inst := OneShotOnGraph(g, fds, ln)
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	phi := inst.Ctx.Float(proc.Phi())
	r := rand.New(rand.NewPCG(9, 1))
	const trials = 4000
	var total float64
	for trial := 0; trial < trials; trial++ {
		out := inst.Execute(func(j int) bool {
			// true with probability p(j), via 40-bit threshold sampling
			return fixpoint.Value(r.Uint64N(uint64(inst.Ctx.One()))) < inst.P[j]
		})
		total += inst.Ctx.Float(out.Size(inst.Ctx))
	}
	mean := total / trials
	if mean > phi*1.05+0.5 {
		t.Errorf("mean realized size %.3f exceeds Phi bound %.3f", mean, phi)
	}
}

// The product form must be exact: a single constraint where any firing
// covers it.
func TestConstraintUBProductExact(t *testing.T) {
	ctx := fixpoint.Default()
	half := ctx.Half()
	inst := &Instance{
		Ctx:     ctx,
		X:       []fixpoint.Value{half, half},
		P:       []fixpoint.Value{half, half},
		C:       []fixpoint.Value{ctx.One()},
		Members: [][]int32{{0, 1}},
		Owner:   []int32{0},
	}
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	// fire value = x/p = 1 ≥ deficit 1; Pr(unc) = (1-1/2)² = 1/4 exactly.
	got := ctx.Float(proc.ConstraintUB(0, -1, 0))
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("UB=%v, want 0.25", got)
	}
	// Conditioning: coin 0 fires → covered, Pr = 0.
	if proc.ConstraintUB(0, 0, 1) != 0 {
		t.Error("UB with fired coin should be 0")
	}
	// Coin 0 off → Pr = 1-1/2 = 1/2.
	got = ctx.Float(proc.ConstraintUB(0, 0, 0))
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("UB with off coin=%v, want 0.5", got)
	}
}

// Enumeration exactness on a small instance where partial firings matter:
// threshold 1, two sites with fire value 0.6 and p=1/2 each; covered only if
// both fire: Pr(unc) = 3/4.
func TestConstraintUBEnumerationExact(t *testing.T) {
	ctx := fixpoint.Default()
	x := ctx.FromFloat(0.3)
	inst := &Instance{
		Ctx:     ctx,
		X:       []fixpoint.Value{x, x},
		P:       []fixpoint.Value{ctx.Half(), ctx.Half()},
		C:       []fixpoint.Value{ctx.One()},
		Members: [][]int32{{0, 1}},
		Owner:   []int32{0},
	}
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	got := ctx.Float(proc.ConstraintUB(0, -1, 0))
	if math.Abs(got-0.75) > 1e-9 {
		t.Errorf("UB=%v, want 0.75", got)
	}
}

// The Chernoff path must (a) upper-bound the true probability and (b) be
// nontrivial for a concentrated sum. 40 sites each fire 0.1 w.p. 1/2,
// threshold 1: E[sum]=2, Pr(sum<1) is small.
func TestConstraintUBChernoffPath(t *testing.T) {
	ctx := fixpoint.Default()
	n := 40
	inst := &Instance{Ctx: ctx}
	members := make([]int32, n)
	for j := 0; j < n; j++ {
		inst.X = append(inst.X, ctx.FromFloat(0.05))
		inst.P = append(inst.P, ctx.Half())
		members[j] = int32(j)
	}
	inst.C = []fixpoint.Value{ctx.One()}
	inst.Members = [][]int32{members}
	inst.Owner = []int32{0}
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	ub := ctx.Float(proc.ConstraintUB(0, -1, 0))
	if ub >= 1 {
		t.Fatalf("Chernoff bound trivial: %v", ub)
	}
	// True probability by Monte Carlo.
	r := rand.New(rand.NewPCG(2, 8))
	const trials = 20000
	unc := 0
	for trial := 0; trial < trials; trial++ {
		var sum float64
		for j := 0; j < n; j++ {
			if r.IntN(2) == 0 {
				sum += 0.1
			}
		}
		if sum < 1 {
			unc++
		}
	}
	truth := float64(unc) / trials
	if ub < truth {
		t.Errorf("Chernoff bound %v below Monte Carlo estimate %v", ub, truth)
	}
}

// A warmed ConstraintUB allocates nothing on any of its three paths: the
// product form, exhaustive enumeration and the Chernoff estimator.
func TestConstraintUBWarmAllocsZero(t *testing.T) {
	ctx := fixpoint.Default()
	inst := &Instance{Ctx: ctx, C: []fixpoint.Value{ctx.One(), ctx.One(), ctx.One()}, Owner: []int32{0, 2, 4}}
	add := func(x fixpoint.Value, k int) []int32 {
		var ms []int32
		for ; k > 0; k-- {
			ms = append(ms, int32(len(inst.X)))
			inst.X = append(inst.X, x)
			inst.P = append(inst.P, ctx.Half())
		}
		return ms
	}
	inst.Members = [][]int32{
		add(ctx.Half(), 2),           // fire 1 covers: product form
		add(ctx.FromFloat(0.3), 2),   // fire 0.6, two coins: enumeration
		add(ctx.FromFloat(0.05), 40), // fire 0.1, 40 coins: Chernoff
	}
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	all := func() {
		for i := range inst.C {
			proc.ConstraintUB(i, -1, 0)
		}
	}
	all()
	if a := testing.AllocsPerRun(10, all); a != 0 {
		t.Errorf("warmed ConstraintUB allocates %.0f times per sweep, want 0", a)
	}
}

// Averaging property: for every unassigned coin, min_b ConditionalCost ≤
// the unconditioned cost contribution (supermartingale step of the method of
// conditional expectations, Lemma 3.10's key inequality).
func TestConditionalCostAveraging(t *testing.T) {
	g := graph.GNPConnected(18, 0.25, 13)
	fds := uniformFDS(g, 3)
	ln := fds.Ctx.FromFloat(math.Log(float64(g.MaxDegree() + 1)))
	inst := OneShotOnGraph(g, fds, ln)
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	ctx := inst.Ctx
	slack := ctx.FromFloat(1e-6)
	for j := 0; j < g.N(); j++ {
		if !proc.Unassigned(j) {
			continue
		}
		// Unconditioned local cost.
		base := proc.ValueExp(j, -1, 0)
		for _, i := range proc.constraintsOf[j] {
			base = ctx.Add(base, proc.ConstraintUB(int(i), -1, 0))
		}
		c0 := proc.ConditionalCost(j, false)
		c1 := proc.ConditionalCost(j, true)
		min := fixpoint.Min(c0, c1)
		if min > ctx.Add(base, slack) {
			t.Fatalf("site %d: min(cost)=%s exceeds base=%s",
				j, ctx.String(min), ctx.String(base))
		}
	}
}

// Full derandomized pass: fixing every coin greedily must end with realized
// size ≤ initial Phi (plus tiny quantization slack).
func TestDerandomizedSizeWithinPhi(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := graph.GNPConnected(30, 0.2, seed)
		fds := uniformFDS(g, 4)
		ln := fds.Ctx.FromFloat(math.Log(float64(g.MaxDegree() + 1)))
		inst := OneShotOnGraph(g, fds, ln)
		proc, err := NewProcess(inst)
		if err != nil {
			t.Fatal(err)
		}
		phi0 := inst.Ctx.Float(proc.Phi())
		for j := 0; j < g.N(); j++ {
			if proc.Unassigned(j) {
				proc.DecideCoin(j)
			}
		}
		out := proc.Finalize()
		size := inst.Ctx.Float(out.Size(inst.Ctx))
		if size > phi0+0.01*phi0+0.1 {
			t.Errorf("seed %d: derandomized size %.4f exceeds Phi %.4f", seed, size, phi0)
		}
	}
}

// Phase 2 always rescues: constraints impossible to cover in phase 1 get
// their owner set to 1.
func TestPhaseTwoRescue(t *testing.T) {
	ctx := fixpoint.Default()
	inst := &Instance{
		Ctx:     ctx,
		X:       []fixpoint.Value{ctx.FromFloat(0.1)},
		P:       []fixpoint.Value{ctx.FromFloat(0.1)},
		C:       []fixpoint.Value{ctx.One()},
		Members: [][]int32{{0}},
		Owner:   []int32{0},
	}
	out := inst.Execute(func(int) bool { return false })
	if out.Rescued != 1 {
		t.Errorf("Rescued=%d, want 1", out.Rescued)
	}
	if out.Values[0] != ctx.One() {
		t.Error("owner not raised to 1")
	}
}

// Lemma 3.6 (empirical): one-shot rounding with k-wise coins, k ≥ F, leaves
// a node uncovered with probability ≤ 1/Δ̃ (up to sampling error).
func TestLemma36UncoveredProbability(t *testing.T) {
	g := graph.Complete(12) // Δ̃ = 12, uniform 1/12-fractional FDS
	f := uint64(12)
	fds := uniformFDS(g, f)
	ln := fds.Ctx.FromFloat(math.Log(13))
	inst := OneShotOnGraph(g, fds, ln)
	gen, err := kwise.New(int(f), g.N(), fds.Ctx.Scale())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(4, 2))
	const trials = 3000
	uncoveredEvents := 0
	for trial := 0; trial < trials; trial++ {
		seed := gen.RandomSeed(r)
		out := inst.Execute(func(j int) bool {
			return gen.Coin(seed, j, uint64(inst.P[j]))
		})
		uncoveredEvents += out.Rescued
	}
	perNode := float64(uncoveredEvents) / float64(trials*g.N())
	bound := 1.0 / 13
	if perNode > bound*1.5+0.02 {
		t.Errorf("Pr(E_v) ≈ %.4f exceeds Lemma 3.6 bound %.4f", perNode, bound)
	}
}

func TestFinalizePanicsOnUnassigned(t *testing.T) {
	g := graph.Path(3)
	fds := uniformFDS(g, 2)
	inst := OneShotOnGraph(g, fds, fds.Ctx.FromFloat(0.5))
	proc, err := NewProcess(inst)
	if err != nil {
		t.Fatal(err)
	}
	hasFree := false
	for j := 0; j < 3; j++ {
		if proc.Unassigned(j) {
			hasFree = true
		}
	}
	if !hasFree {
		t.Skip("no free coins in this configuration")
	}
	defer func() {
		if recover() == nil {
			t.Error("Finalize with unassigned coins did not panic")
		}
	}()
	proc.Finalize()
}
