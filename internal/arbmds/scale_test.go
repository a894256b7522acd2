package arbmds

import (
	"runtime/debug"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/testmem"
	"congestds/internal/verify"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled = false

// TestArbmdsMillionNodeUnionForest is the scale demonstration the
// subsystem exists for: a full algorithm — not just a synthetic broadcast
// pattern — on a million-node bounded-arboricity graph, natively on the
// stepped engine, inside the CI memory budget. The run must produce a
// verified dominating set within the instantiated O(α) claim, in a round
// count that is a pure function of (Δ, ε). The CI memsmoke job runs this
// under an external GOMEMLIMIT=700MiB next to the torus smoke.
func TestArbmdsMillionNodeUnionForest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: million-node run takes ~10 s")
	}
	if raceEnabled {
		t.Skip("race detector multiplies the 1M-node footprint several-fold")
	}
	// Bound the GC's laziness so peak RSS reflects live memory (generator
	// churn included), as the torus smoke does.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(600 << 20))
	const n = 1_000_000
	g := graph.UnionForests(n, 3, 1)
	res, err := Solve(g, Params{Run: congest.Run{Sim: congest.EngineStepped}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(res.Thresholds); res.Metrics.Rounds != want {
		t.Errorf("rounds=%d, want 4·|schedule|=%d", res.Metrics.Rounds, want)
	}
	if bound := verify.RoundBoundArb(g.MaxDegree(), 0.5); res.Metrics.Rounds > bound {
		t.Errorf("rounds=%d exceed the claimed bound %d (Δ=%d)", res.Metrics.Rounds, bound, g.MaxDegree())
	}
	if v := verify.FirstUndominated(g, res.Set); v != -1 {
		t.Fatalf("node %d undominated", v)
	}
	// The full certificate (dual-packing LB + degeneracy) is cheap even at
	// this size; ratio ≈ 1.95 on this instance, claim 22.5.
	cert := verify.CertifyArb(g, res.Set, 0.5)
	if !cert.OK {
		t.Errorf("certificate failed at n=10⁶: %v", cert)
	}
	t.Logf("n=%d Δ=%d rounds=%d |set|=%d %v", n, g.MaxDegree(), res.Metrics.Rounds, len(res.Set), cert)
	// With one program value per run (no per-node StepProgram in the
	// stepped engine) the peak read 140.8–141.1 MiB in 5 of 5 runs alone
	// under GOMEMLIMIT=700MiB (161.1–161.3 MiB before), and 165.5–191.3
	// MiB in 13 runs of the whole package, where the generator's and
	// earlier tests' garbage may be live when the run starts (2-core
	// Xeon). The bound is 1.5× the highest of those readings, rounded up.
	const bound = 300 << 20
	hwm := testmem.ReadVmHWM()
	t.Logf("peak RSS after 1M-node arbmds run: %.1f MiB", float64(hwm)/(1<<20))
	if hwm > 0 && hwm >= bound {
		t.Errorf("peak RSS %d bytes >= %d MiB bound", hwm, bound>>20)
	}
}
