package rounding

import (
	"math"
	"math/big"
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

// A free member whose fire value is 0 covers nothing, so it must not enter
// the product form: here the second member alone covers the threshold, and
// the constraint is violated exactly when it does not fire, Pr = 1/2. The
// zero-fire member comes first, in both member orders the answer is 1/2.
func TestConstraintUBZeroFireMemberFirst(t *testing.T) {
	ctx := fixpoint.Default()
	half := ctx.Half()
	for _, members := range [][]int32{{0, 1}, {1, 0}} {
		inst := &Instance{
			Ctx:     ctx,
			X:       []fixpoint.Value{0, half},
			P:       []fixpoint.Value{half, half},
			C:       []fixpoint.Value{ctx.One()},
			Members: [][]int32{members},
			Owner:   []int32{0},
		}
		proc, err := NewProcess(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got := proc.ConstraintUB(0, -1, 0); got != half {
			t.Errorf("members %v: UB = %s, want 1/2", members, ctx.String(got))
		}
	}
}

// exactViolation returns Pr(Σ values < C_i) for constraint i by summing
// over every assignment of the unassigned coins, with site j0 overridden to
// coin b0 (j0 = -1 for none). It restates the process's semantics directly:
// p ∈ {0, 1} keeps 0 or x, a fixed coin gives its fire value or 0, and an
// unassigned coin fires with probability p.
func exactViolation(proc *Process, i, j0 int, b0 int8) *big.Rat {
	in := proc.Instance()
	one := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), in.Ctx.Scale()))
	var fixed fixpoint.Value
	var free []int
	for _, m := range in.Members[i] {
		j := int(m)
		c := proc.Coin(j)
		if j == j0 {
			c = b0
		}
		switch {
		case in.Deterministic(j):
			if in.P[j] != 0 {
				fixed += in.X[j]
			}
		case c == 1:
			fixed += in.FireValue(j)
		case c == coinUnset:
			free = append(free, j)
		}
	}
	total := new(big.Rat)
	for mask := 0; mask < 1<<len(free); mask++ {
		sum := fixed
		w := big.NewRat(1, 1)
		for k, j := range free {
			p := new(big.Rat).Quo(new(big.Rat).SetInt64(int64(in.P[j])), one)
			if mask&(1<<k) != 0 {
				sum += in.FireValue(j)
			} else {
				p.Sub(big.NewRat(1, 1), p)
			}
			w.Mul(w, p)
		}
		if sum < in.C[i] {
			total.Add(total, w)
		}
	}
	return total
}

// ConstraintUB is an upper bound on the exact Pr(E_i) on random small
// constraints mixing deterministic members (p = 0 and p = 1), fixed coins,
// and free members with zero and nonzero fire values, with and without a
// coin override. At most 10 members keeps ConstraintUB on its exact paths
// (product form or enumeration), so it must also be within rounding of
// the exact value.
func TestConstraintUBUpperBoundsExact(t *testing.T) {
	ctx := fixpoint.Default()
	one := ctx.One()
	unit := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), ctx.Scale()))
	slack := big.NewRat(1, 1<<20)
	r := rand.New(rand.NewPCG(29, 3))
	below := func(hi fixpoint.Value) fixpoint.Value { // uniform in [1, hi)
		return 1 + fixpoint.Value(r.Uint64N(uint64(hi-1)))
	}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + r.IntN(10)
		inst := &Instance{
			Ctx:     ctx,
			C:       []fixpoint.Value{below(one + 1)},
			Members: [][]int32{make([]int32, k)},
			Owner:   []int32{0},
		}
		for m := 0; m < k; m++ {
			var x, p fixpoint.Value
			switch r.IntN(5) {
			case 0: // keeps x
				x, p = below(one), one
			case 1: // keeps 0
			case 2: // zero fire value
				p = below(one)
			default:
				x = below(one)
				p = x + fixpoint.Value(r.Uint64N(uint64(one-x)))
			}
			inst.X = append(inst.X, x)
			inst.P = append(inst.P, p)
			inst.Members[0][m] = int32(m)
		}
		proc, err := NewProcess(inst)
		if err != nil {
			t.Fatal(err)
		}
		var unassigned []int
		for j := range inst.X {
			if !proc.Unassigned(j) {
				continue
			}
			if r.IntN(4) == 0 {
				proc.SetCoin(j, r.IntN(2) == 0)
			} else {
				unassigned = append(unassigned, j)
			}
		}
		j0, b0 := -1, int8(0)
		if len(unassigned) > 0 && r.IntN(2) == 0 {
			j0, b0 = unassigned[r.IntN(len(unassigned))], int8(r.IntN(2))
		}
		ub := new(big.Rat).Quo(new(big.Rat).SetInt64(int64(proc.ConstraintUB(0, j0, b0))), unit)
		exact := exactViolation(proc, 0, j0, b0)
		if ub.Cmp(exact) < 0 || new(big.Rat).Sub(ub, exact).Cmp(slack) > 0 {
			t.Fatalf("trial %d (x=%v p=%v c=%v, override %d→%d): UB %s, exact %s",
				trial, inst.X, inst.P, inst.C, j0, b0, ub.FloatString(12), exact.FloatString(12))
		}
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
