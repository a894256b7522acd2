package mcds

import (
	"runtime/debug"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/obs"
	"congestds/internal/testmem"
	"congestds/internal/verify"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled = false

// TestMcdsMillionNodeUnionForest: the scale demonstration of the third
// algorithm family — a full connected-dominating-set computation
// (dominate + orient + connect) on a million-node forest-union graph,
// natively on the stepped engine, inside the CI memory budget. The output
// is verified connected and dominating with a measured ratio against the
// dual-packing lower bound; the diameter bound comes from one host-side
// BFS (the known-D assumption). The CI memsmoke job runs this under an
// external GOMEMLIMIT=700MiB next to the torus and arbmds smokes.
func TestMcdsMillionNodeUnionForest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: million-node run takes ~15 s")
	}
	if raceEnabled {
		t.Skip("race detector multiplies the 1M-node footprint several-fold")
	}
	// Bound the GC's laziness so peak RSS reflects live memory (generator
	// churn included), matching the torus and arbmds smokes.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(600 << 20))
	const n = 1_000_000
	g := graph.UnionForests(n, 3, 1)
	diam := g.DiamBound()
	agg := obs.NewAggregator()
	res, err := Solve(g, Params{DiamBound: diam, Run: congest.Run{Sim: congest.EngineStepped, Observer: obs.NewRecorder(agg)}})
	if err != nil {
		t.Fatal(err)
	}
	// Measured 19,385,883 (the never-sleeping flood: 33,177,543); the
	// bound keeps ~12% headroom.
	if steps := agg.Profile().NodeSteps; steps > 21_700_000 {
		t.Errorf("node-steps %d > 21,700,000: the orientation flood or connect hops stopped sleeping?", steps)
	}
	if want := 4*len(res.Thresholds) + diam + 2; res.Metrics.Rounds != want {
		t.Errorf("rounds=%d, want 4·|schedule|+D̂+2=%d", res.Metrics.Rounds, want)
	}
	if bound := verify.RoundBoundMCDS(g.MaxDegree(), 0.5, diam); res.Metrics.Rounds > bound {
		t.Errorf("rounds=%d exceed the claimed bound %d (Δ=%d, D̂=%d)",
			res.Metrics.Rounds, bound, g.MaxDegree(), diam)
	}
	if len(res.CDS) > 3*len(res.DS)+1 {
		t.Errorf("|CDS|=%d exceeds 3|DS|+1=%d", len(res.CDS), 3*len(res.DS)+1)
	}
	// Solve already verified connectivity + domination (linear); the
	// certificate adds the dual-packing ratio, cheap even at this size.
	cert := verify.CertifyCDSVerified(g, res.CDS, verify.MCDSClaimBound(g.MaxDegree(), 0.5))
	if !cert.OK {
		t.Errorf("certificate failed at n=10⁶: %v", cert)
	}
	t.Logf("n=%d Δ=%d D̂=%d rounds=%d node-steps=%d |DS|=%d |CDS|=%d %v",
		n, g.MaxDegree(), diam, res.Metrics.Rounds, agg.Profile().NodeSteps, len(res.DS), len(res.CDS), cert)
	hwm := testmem.ReadVmHWM()
	t.Logf("peak RSS after 1M-node mcds run: %.1f MiB", float64(hwm)/(1<<20))
	if hwm > 0 && hwm >= 700<<20 {
		t.Errorf("peak RSS %d bytes >= 700 MiB bound", hwm)
	}
}
