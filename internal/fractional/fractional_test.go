package fractional

import (
	"math"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/fixpoint"
	"congestds/internal/graph"
)

func TestNewFDSDefaults(t *testing.T) {
	ctx := fixpoint.Default()
	f := NewFDS(ctx, 5)
	if f.N() != 5 {
		t.Fatalf("N=%d", f.N())
	}
	for v := 0; v < 5; v++ {
		if f.X[v] != 0 {
			t.Errorf("node %d not initialized to 0", v)
		}
	}
	if f.Size() != 0 {
		t.Error("empty FDS has nonzero size")
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	g := graph.Path(3)
	ctx := fixpoint.Default()
	f := NewFDS(ctx, 3)
	if err := f.Check(g); err == nil {
		t.Error("all-zero FDS accepted")
	}
	f.X[1] = ctx.One() // centre dominates the path
	if err := f.Check(g); err != nil {
		t.Errorf("valid FDS rejected: %v", err)
	}
	f.X[0] = ctx.Add(ctx.One(), ctx.One()) // x > 1
	if err := f.Check(g); err == nil {
		t.Error("x>1 accepted")
	}
	f.X[0] = 0
	f2 := NewFDS(ctx, 2)
	if err := f2.Check(g); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestFractionalCoverageHalves(t *testing.T) {
	// Two halves of 1/2 cover a constraint of 1.
	g := graph.Path(3)
	ctx := fixpoint.Default()
	f := NewFDS(ctx, 3)
	f.X[0] = ctx.Half()
	f.X[2] = ctx.Half()
	// Node 1 sees 1/2+1/2 = 1; nodes 0 and 2 see 1/2 < 1.
	if cov := f.Coverage(g, 1); cov != ctx.One() {
		t.Errorf("coverage=%s, want 1", ctx.String(cov))
	}
	if err := f.Check(g); err == nil {
		t.Error("endpoints are uncovered; Check should fail")
	}
}

func TestFractionalityAndIntegral(t *testing.T) {
	ctx := fixpoint.Default()
	f := NewFDS(ctx, 4)
	if f.Fractionality() != 0 {
		t.Error("fractionality of zero vector should be 0")
	}
	f.X[0] = ctx.One()
	f.X[1] = ctx.Half()
	if f.Fractionality() != ctx.Half() {
		t.Error("fractionality wrong")
	}
	if f.Integral() {
		t.Error("half value reported integral")
	}
	f.X[1] = ctx.One()
	if !f.Integral() {
		t.Error("0/1 vector not integral")
	}
	set := f.Set()
	if len(set) != 2 || set[0] != 0 || set[1] != 1 {
		t.Errorf("Set=%v", set)
	}
}

func TestScaleFor(t *testing.T) {
	if s := ScaleFor(4).Scale(); s != 12 {
		t.Errorf("ScaleFor(4)=%d, want 12", s)
	}
	if s := ScaleFor(256).Scale(); s != 40 {
		t.Errorf("ScaleFor(256)=%d, want 40", s)
	}
	if s := ScaleFor(1 << 20).Scale(); s != 44 {
		t.Errorf("ScaleFor(2^20)=%d, want 44 (capped)", s)
	}
}

func TestInitialFeasibleAcrossFamilies(t *testing.T) {
	for _, tt := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path16", graph.Path(16)},
		{"cycle15", graph.Cycle(15)},
		{"star20", graph.Star(20)},
		{"grid5x5", graph.Grid(5, 5)},
		{"gnp40", graph.GNPConnected(40, 0.12, 3)},
		{"caterpillar", graph.Caterpillar(6, 3)},
		{"single", graph.Path(1)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			net := congest.NewNetwork(tt.g, congest.Config{})
			var ledger congest.Ledger
			f, err := Initial(net, &ledger, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Check(tt.g); err != nil {
				t.Fatalf("infeasible: %v", err)
			}
			// Fractionality floor from Lemma 2.1.
			floor := FloorValue(f.Ctx, 0.5, tt.g.MaxDegree())
			if fr := f.Fractionality(); fr < floor {
				t.Errorf("fractionality %s below floor %s",
					f.Ctx.String(fr), f.Ctx.String(floor))
			}
			if ledger.Metrics().Rounds == 0 && tt.g.N() > 1 {
				t.Error("no rounds recorded")
			}
		})
	}
}

func TestInitialSizeReasonable(t *testing.T) {
	// On a star, OPT=1; the fractional solution should be O(1)+n·floor.
	g := graph.Star(50)
	net := congest.NewNetwork(g, congest.Config{})
	f, err := Initial(net, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	size := f.SizeFloat()
	// Floor contributes at most n·ε/(2Δ̃) = 50·0.5/100 = 0.25.
	if size > 3.5 {
		t.Errorf("fractional size %v too large for a star (OPT=1)", size)
	}
}

func TestInitialDeterministic(t *testing.T) {
	g := graph.GNPConnected(30, 0.15, 11)
	run := func() []fixpoint.Value {
		net := congest.NewNetwork(g, congest.Config{})
		f, err := Initial(net, nil, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		return f.X
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs across runs", v)
		}
	}
}

// TestInitialValidation: a bad ε fails on every graph, the empty one too.
func TestInitialValidation(t *testing.T) {
	for _, n := range []int{4, 0} {
		net := congest.NewNetwork(graph.Path(n), congest.Config{})
		for _, eps := range []float64{0, 1.5, math.NaN()} {
			if _, err := Initial(net, nil, eps); err == nil {
				t.Errorf("n=%d: eps=%v accepted", n, eps)
			}
		}
	}
}

func TestInitialMessageBudgetRespected(t *testing.T) {
	// The run must not violate the CONGEST bandwidth (Run errors if so).
	g := graph.GNPConnected(64, 0.1, 2)
	net := congest.NewNetwork(g, congest.Config{})
	var ledger congest.Ledger
	if _, err := Initial(net, &ledger, 0.5); err != nil {
		t.Fatalf("CONGEST run failed: %v", err)
	}
	m := ledger.Metrics()
	if m.MaxMsgBits > m.BandwidthBits {
		t.Errorf("max message %d bits exceeds budget %d", m.MaxMsgBits, m.BandwidthBits)
	}
}
