package mcds

import (
	"errors"
	"math"
	"slices"
	"testing"
	"unsafe"

	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/obs"
	"congestds/internal/verify"
)

// TestMcdsStepFootprint pins the per-node state of the native form: the
// Peel word and the flood-min BFS triple, with the shared state held once
// by the program.
func TestMcdsStepFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(mcdsNode{}); sz > 24 {
		t.Errorf("sizeof(mcdsNode) = %d B, want ≤ 24", sz)
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	res, err := Solve(graph.Path(0), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 0 {
		t.Errorf("empty graph CDS = %v, want empty", res.CDS)
	}
	res, err = Solve(graph.Path(1), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CDS) != 1 {
		t.Errorf("single-node CDS size %d, want 1", len(res.CDS))
	}
}

func TestSolveRejectsDisconnected(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, Params{}); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// TestRejectsBadParams: an ε with no threshold schedule or a negative
// diameter bound is caller misuse, typed as congest.ErrConfig by Solve —
// not run as the two-threshold schedule (NaN, +Inf), as ε = 0.5 (negative
// ε) or as D̂ = n (negative bound).
func TestRejectsBadParams(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	for _, p := range []Params{
		{Eps: math.NaN()},
		{Eps: math.Inf(1)},
		{Eps: -1},
		{DiamBound: -1},
	} {
		if _, err := Solve(g, p); !errors.Is(err, congest.ErrConfig) {
			t.Errorf("Solve %+v: err = %v, want ErrConfig", p, err)
		}
	}
}

func testFamilies() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path20", graph.Path(20)},
		{"cycle16", graph.Cycle(16)},
		{"star14", graph.Star(14)},
		{"grid5x5", graph.Grid(5, 5)},
		{"gnp50", graph.GNPConnected(50, 0.1, 3)},
		{"caterpillar6x3", graph.Caterpillar(6, 3)},
		{"tree2x4", graph.CompleteTree(2, 4)},
		{"disk60", graph.UnitDiskConnected(60, 0.25, 4)},
		{"complete8", graph.Complete(8)},
		{"ba50", graph.BarabasiAlbert(50, 2, 7)},
	}
}

func TestSolveAcrossFamilies(t *testing.T) {
	for _, tt := range testFamilies() {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
				t.Fatalf("invalid CDS: %v", err)
			}
			if v := verify.FirstUndominated(tt.g, res.DS); v != -1 {
				t.Errorf("phase-1 set leaves node %d undominated", v)
			}
			if len(res.CDS) > 3*len(res.DS)+1 {
				t.Errorf("|CDS|=%d exceeds 3|DS|+1=%d", len(res.CDS), 3*len(res.DS)+1)
			}
			// Exact round accounting: the whole schedule is a pure function
			// of (Δ, ε, D̂).
			want := 4*len(res.Thresholds) + res.DiamBound + 2
			if res.Metrics.Rounds != want {
				t.Errorf("rounds=%d, want 4·|schedule|+D̂+2=%d", res.Metrics.Rounds, want)
			}
		})
	}
}

func TestSolveWithTightDiamBound(t *testing.T) {
	for _, tt := range testFamilies() {
		t.Run(tt.name, func(t *testing.T) {
			diam := tt.g.DiamBound()
			res, err := Solve(tt.g, Params{DiamBound: diam})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckCDS(tt.g, res.CDS); err != nil {
				t.Fatalf("invalid CDS with D̂=%d: %v", diam, err)
			}
			if bound := verify.RoundBoundMCDS(tt.g.MaxDegree(), 0.5, diam); res.Metrics.Rounds > bound {
				t.Errorf("rounds=%d exceed claimed bound %d", res.Metrics.Rounds, bound)
			}
			// The loose-D̂ run must pick the identical set: D̂ affects the
			// orientation length, never the flood's fixpoint.
			loose, err := Solve(tt.g, Params{})
			if err != nil {
				t.Fatal(err)
			}
			if len(loose.CDS) != len(res.CDS) {
				t.Fatalf("CDS depends on DiamBound: %d vs %d members", len(res.CDS), len(loose.CDS))
			}
			for i := range res.CDS {
				if res.CDS[i] != loose.CDS[i] {
					t.Fatalf("CDS depends on DiamBound at member %d", i)
				}
			}
		})
	}
}

func TestSolveEngineInvariance(t *testing.T) {
	g := graph.GNPConnected(60, 0.08, 11)
	var ref *Result
	for _, eng := range congest.Engines() {
		res, err := Solve(g, Params{Run: congest.Run{Sim: eng}})
		if err != nil {
			t.Fatalf("engine %v: %v", eng, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.CDS) != len(ref.CDS) || res.Metrics.Rounds != ref.Metrics.Rounds {
			t.Fatalf("engine %v diverges: %d members/%d rounds vs %d/%d",
				eng, len(res.CDS), res.Metrics.Rounds, len(ref.CDS), ref.Metrics.Rounds)
		}
		for i := range res.CDS {
			if res.CDS[i] != ref.CDS[i] {
				t.Fatalf("engine %v: CDS member %d differs", eng, i)
			}
		}
	}
}

// TestConnectExtendsGreedy: the connect phase only adds connectors to the
// greedy threshold-peel set of phase 1 — every dominator stays in the CDS,
// at most two connectors per dominator plus the root join.
func TestConnectExtendsGreedy(t *testing.T) {
	for _, tt := range testFamilies() {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, Params{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.DS {
				if _, ok := slices.BinarySearch(res.CDS, v); !ok {
					t.Errorf("DS member %d missing from CDS", v)
				}
			}
			if len(res.CDS) > 3*len(res.DS)+1 {
				t.Errorf("|CDS|=%d exceeds 3|DS|+1=%d", len(res.CDS), 3*len(res.DS)+1)
			}
		})
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := graph.GNPConnected(48, 0.1, 5)
	a, err := Solve(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, Params{Run: congest.Run{Sim: congest.EngineStepped}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CDS) != len(b.CDS) {
		t.Fatal("non-deterministic CDS size")
	}
	for i := range a.CDS {
		if a.CDS[i] != b.CDS[i] {
			t.Fatal("non-deterministic CDS")
		}
	}
}

// A DiamBound below the true diameter must fail loudly (the post-run
// verification rejects the mis-oriented output), never return a silently
// wrong set.
func TestSolveDiamBoundTooSmallFailsLoudly(t *testing.T) {
	g := graph.Path(30)
	res, err := Solve(g, Params{DiamBound: 3})
	if err == nil {
		t.Fatalf("DiamBound=3 on a diameter-29 path returned a result with %d members", len(res.CDS))
	}
}

// On a disconnected input, where whole-graph connectivity is undefined,
// the componentwise check is the guard that catches a DiamBound below the
// true diameter: the program forms run there (one CDS per component), and
// a too-short flood sends nothing the in-protocol assertions could see.
func TestConnectDiamBoundTooSmallFailsOnDisconnected(t *testing.T) {
	var edges [][2]int
	for v := 0; v+1 < 30; v++ {
		edges = append(edges, [2]int{v, v + 1}) // component A: path 0..29
	}
	for v := 30; v+1 < 60; v++ {
		edges = append(edges, [2]int{v, v + 1}) // component B: path 30..59
	}
	g, err := graph.FromEdges(60, edges)
	if err != nil {
		t.Fatal(err)
	}
	run := func(diam int) error {
		inD, inCDS := make([]bool, g.N()), make([]bool, g.N())
		if _, err := congest.NewNetwork(g, congest.Config{}).RunStepped(StepProgram(g, arbmds.DefaultEps, diam, inD, inCDS)); err != nil {
			return err
		}
		var cds []int
		for v, in := range inCDS {
			if in {
				cds = append(cds, v)
			}
		}
		return verify.CheckCDSComponents(g, cds)
	}
	// Sanity: a safe bound succeeds.
	if err := run(g.N()); err != nil {
		t.Fatalf("D̂ = n: %v", err)
	}
	if err := run(3); err == nil {
		t.Fatal("D̂ = 3 on diameter-29 components passed the componentwise check")
	}
}

// The certificate: the claim bound holds on every test family.
func TestSolveWithinClaimBound(t *testing.T) {
	for _, tt := range testFamilies() {
		t.Run(tt.name, func(t *testing.T) {
			res, err := Solve(tt.g, Params{})
			if err != nil {
				t.Fatal(err)
			}
			cert := verify.CertifyCDS(tt.g, res.CDS, verify.MCDSClaimBound(tt.g.MaxDegree(), 0.5))
			if !cert.OK {
				t.Errorf("certificate failed: %v", cert)
			}
		})
	}
}

// TestDominatePhaseIsArbmds pins the dominate phase end to end: mcds runs
// the arbmds peel, so on every connected family graph its DS is arbmds's
// set and its rounds are arbmds's plus the orient and connect phases.
func TestDominatePhaseIsArbmds(t *testing.T) {
	checked := 0
	for _, fam := range graph.Families() {
		for _, n := range []int{40, 150} {
			g, err := graph.Named(fam, n, 5)
			if err != nil {
				t.Fatalf("%s: %v", fam, err)
			}
			if !g.IsConnected() {
				continue
			}
			diam := g.DiamBound()
			for _, eps := range []float64{0.1, 0.5, 1} {
				ar, err := arbmds.Solve(g, arbmds.Params{Eps: eps})
				if err != nil {
					t.Fatalf("%s n=%d ε=%v: arbmds: %v", fam, n, eps, err)
				}
				res, err := Solve(g, Params{Eps: eps, DiamBound: diam})
				if err != nil {
					t.Fatalf("%s n=%d ε=%v: %v", fam, n, eps, err)
				}
				if !slices.Equal(res.DS, ar.Set) {
					t.Errorf("%s n=%d ε=%v: DS %v differs from arbmds's set %v", fam, n, eps, res.DS, ar.Set)
				}
				if want := ar.Metrics.Rounds + diam + 2; res.Metrics.Rounds != want {
					t.Errorf("%s n=%d ε=%v: rounds=%d, want arbmds's %d + D̂ + 2 = %d",
						fam, n, eps, res.Metrics.Rounds, ar.Metrics.Rounds, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no connected family graph checked")
	}
	t.Logf("%d (family, n, ε) cases checked", checked)
}

// solveProfiled runs Solve on the stepped engine with an aggregating
// observer and returns the result and its node-steps.
func solveProfiled(t *testing.T, g *graph.Graph, diam int) (*Result, int64) {
	t.Helper()
	agg := obs.NewAggregator()
	res, err := Solve(g, Params{DiamBound: diam, Run: congest.Run{Sim: congest.EngineStepped, Observer: obs.NewRecorder(agg)}})
	if err != nil {
		t.Fatal(err)
	}
	return res, agg.Profile().NodeSteps
}

// TestOrientSleeps pins the sleeping orientation flood and connect hops on
// the stepped engine: a node runs only on mail, at the token launch (a
// dominator) and in the last round, so most node-rounds after the peel
// are skipped, while the set and the rounds stay those of the
// never-sleeping BlockingProgram. The node-step bounds keep ~12% headroom
// over the measured 356,434 (uforest) and 532,028 (gridx); the
// never-sleeping flood took 548,203 and 5,755,039. The gridx blocking run
// (~300 rounds of 19,881 goroutines) is skipped under -short.
func TestOrientSleeps(t *testing.T) {
	for _, tt := range []struct {
		name     string
		g        *graph.Graph
		maxSteps int64
		long     bool
	}{
		{"uforest20000", graph.UnionForests(20000, 3, 1), 400_000, false},
		{"gridx141", graph.GridDiagonals(141, 141), 600_000, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if tt.long && testing.Short() {
				t.Skip("short mode: the blocking reference takes ~10 s")
			}
			diam := tt.g.DiamBound()
			res, steps := solveProfiled(t, tt.g, diam)
			inD, inCDS := make([]bool, tt.g.N()), make([]bool, tt.g.N())
			m, err := congest.NewNetwork(tt.g, congest.Config{}).Run(BlockingProgram(tt.g, arbmds.DefaultEps, diam, inD, inCDS))
			if err != nil {
				t.Fatal(err)
			}
			var blocking []int
			for v, in := range inCDS {
				if in {
					blocking = append(blocking, v)
				}
			}
			if !slices.Equal(res.CDS, blocking) {
				t.Fatalf("sleeping flood's CDS (%d nodes) differs from BlockingProgram's (%d nodes)", len(res.CDS), len(blocking))
			}
			if res.Metrics.Rounds != m.Rounds {
				t.Errorf("rounds=%d, BlockingProgram's %d", res.Metrics.Rounds, m.Rounds)
			}
			if steps > tt.maxSteps {
				t.Errorf("node-steps %d > %d", steps, tt.maxSteps)
			}
			t.Logf("node-steps %d of n·rounds %d", steps, int64(tt.g.N())*int64(res.Metrics.Rounds))
		})
	}
}

// TestDefaultDiamBoundSleeps: with the flood asleep, D̂ = n (DiamBound 0)
// costs rounds in which nothing is due, not n node-steps each. The CDS is
// the tight bound's (the flood has settled long before either deadline),
// and the node-steps stay within a small multiple of the tight run's.
func TestDefaultDiamBoundSleeps(t *testing.T) {
	g := graph.UnionForests(20000, 3, 1)
	tight, tightSteps := solveProfiled(t, g, g.DiamBound())
	loose, looseSteps := solveProfiled(t, g, 0)
	if loose.DiamBound != g.N() {
		t.Fatalf("DiamBound 0 ran D̂=%d, want n=%d", loose.DiamBound, g.N())
	}
	if !slices.Equal(loose.CDS, tight.CDS) {
		t.Fatalf("CDS with D̂=n (%d nodes) differs from D̂=2·ecc+2 (%d nodes)", len(loose.CDS), len(tight.CDS))
	}
	if looseSteps > 2*tightSteps {
		t.Errorf("node-steps %d with D̂=n > 2× the tight bound's %d", looseSteps, tightSteps)
	}
	t.Logf("node-steps %d (D̂=%d) vs %d (D̂=%d)", looseSteps, loose.DiamBound, tightSteps, tight.DiamBound)
}
