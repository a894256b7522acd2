package conformance

import (
	"errors"
	"testing"

	"congestds/internal/congest"
	"congestds/internal/mcds"
	"congestds/internal/verify"
)

// TestMcdsFailureMetricsConformance drives the mcds-full case into
// ErrMaxRounds by clamping the round budget mid-schedule: every engine ×
// program form must fail with the same sentinel and report identical
// Rounds/Messages/Bits for the aborted run. Depending on where the clamp
// lands the abort hits the peel, the orientation flood or the connect
// hops, so the failure accounting sees all three traffic shapes.
func TestMcdsFailureMetricsConformance(t *testing.T) {
	c := Case{Name: "mcds-full-clamped", Build: buildMcdsFull, BuildStep: buildMcdsFullStep}
	for _, ng := range Corpus(true)[:10] {
		if ng.G.N() < 2 {
			continue // single-node runs cannot be interrupted mid-run
		}
		inD := make([]bool, ng.G.N())
		inCDS := make([]bool, ng.G.N())
		net := congest.NewNetwork(ng.G, congest.Config{})
		full, err := net.RunStepped(mcds.StepProgram(ng.G, 0.5, corpusDiam(ng.G), inD, inCDS))
		if err != nil {
			t.Fatalf("graph %s: unclamped run failed: %v", ng.Name, err)
		}
		clamp := full.Rounds / 2
		if clamp < 1 {
			continue
		}
		// Sanity: the clamp actually triggers the failure on the reference.
		net = congest.NewNetwork(ng.G, congest.Config{MaxRounds: clamp})
		if _, err := net.RunStepped(mcds.StepProgram(ng.G, 0.5, corpusDiam(ng.G),
			make([]bool, ng.G.N()), make([]bool, ng.G.N()))); !errors.Is(err, congest.ErrMaxRounds) {
			t.Fatalf("graph %s: clamp %d did not trigger ErrMaxRounds: %v", ng.Name, clamp, err)
		}
		if err := Diff(c, ng.G, congest.Config{MaxRounds: clamp}); err != nil {
			t.Errorf("graph %s: %v", ng.Name, err)
		}
	}
}

// TestMcdsCorpusOutputsAreComponentwiseCDS: beyond byte-identity, the
// mcds-full case's output must actually be a connected dominating set of
// every component on every corpus graph — the harness alone would accept
// a consistently-wrong program. (The corpus includes disconnected graphs,
// where the program produces one CDS per component.)
func TestMcdsCorpusOutputsAreComponentwiseCDS(t *testing.T) {
	for _, ng := range Corpus(testing.Short()) {
		inD := make([]bool, ng.G.N())
		inCDS := make([]bool, ng.G.N())
		net := congest.NewNetwork(ng.G, congest.Config{Engine: congest.EngineStepped})
		if _, err := net.RunStepped(mcds.StepProgram(ng.G, 0.5, corpusDiam(ng.G), inD, inCDS)); err != nil {
			t.Fatalf("graph %s: %v", ng.Name, err)
		}
		var cds []int
		for v, in := range inCDS {
			if in {
				cds = append(cds, v)
			}
		}
		if err := verify.CheckCDSComponents(ng.G, cds); err != nil {
			t.Errorf("graph %s: %v", ng.Name, err)
		}
	}
}
