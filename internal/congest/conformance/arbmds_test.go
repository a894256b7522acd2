package conformance

import (
	"errors"
	"testing"

	"congestds/internal/arbmds"
	"congestds/internal/congest"
)

// TestArbmdsFailureMetricsConformance drives the arbmds case into
// ErrMaxRounds by clamping the round budget below its 4-rounds-per-phase
// schedule: every engine × program form must fail with the same sentinel
// and report identical Rounds/Messages/Bits for the aborted run. This is
// the real-algorithm companion to the synthetic runaway/oversend failure
// cases — the peeling protocol's mixed empty/integer payloads exercise the
// failure accounting with realistic traffic.
func TestArbmdsFailureMetricsConformance(t *testing.T) {
	c := Case{Name: "arbmds-peel-clamped", Build: buildArbmds, BuildStep: buildArbmdsStep}
	for _, ng := range Corpus(true)[:10] {
		full, err := arbmds.Solve(ng.G, arbmds.Params{})
		if err != nil {
			t.Fatalf("graph %s: unclamped run failed: %v", ng.Name, err)
		}
		clamp := full.Metrics.Rounds / 2
		if clamp < 1 {
			continue // single-phase graphs cannot be interrupted mid-run
		}
		// Sanity: the clamp actually triggers the failure on the reference.
		if _, err := arbmds.Solve(ng.G, arbmds.Params{MaxRounds: clamp}); !errors.Is(err, congest.ErrMaxRounds) {
			t.Fatalf("graph %s: clamp %d did not trigger ErrMaxRounds: %v", ng.Name, clamp, err)
		}
		if err := Diff(c, ng.G, congest.Config{MaxRounds: clamp}); err != nil {
			t.Errorf("graph %s: %v", ng.Name, err)
		}
	}
}

// TestArbmdsCorpusOutputsDominate: beyond byte-identity, the registered
// case's output must actually be a dominating set on every corpus graph
// (the conformance harness alone would accept a consistently-wrong
// program).
func TestArbmdsCorpusOutputsDominate(t *testing.T) {
	for _, ng := range Corpus(testing.Short()) {
		res, err := arbmds.Solve(ng.G, arbmds.Params{Run: congest.Run{Sim: congest.EngineStepped}})
		if err != nil {
			t.Fatalf("graph %s: %v", ng.Name, err)
		}
		in := make(map[int]bool, len(res.Set))
		for _, v := range res.Set {
			in[v] = true
		}
		for v := 0; v < ng.G.N(); v++ {
			if in[v] {
				continue
			}
			dominated := false
			for _, u := range ng.G.Neighbors(v) {
				if in[int(u)] {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Errorf("graph %s: node %d undominated", ng.Name, v)
				break
			}
		}
	}
}
