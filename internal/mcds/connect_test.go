package mcds_test

import (
	"slices"
	"testing"

	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/congest/conformance"
	"congestds/internal/mcds"
	"congestds/internal/verify"
)

// Cross-engine property test for the connect phase through the Solve API:
// on every connected graph of the conformance corpus, Solve (the stepped
// form) and BlockingProgram (the independently written blocking form) must
// produce the identical CDS on every engine, and it must pass the
// connectivity certificate. This is the package-level companion to the
// registered mcds-full conformance case: it reads the CDS out of Solve's
// Result, so a wiring bug in that fold — not just in the protocol — shows
// up here.
func TestConnectCrossEngine(t *testing.T) {
	for _, ng := range conformance.Corpus(testing.Short()) {
		g := ng.G
		if !g.IsConnected() || g.N() == 0 {
			continue // Solve's contract (one CDS) is for connected graphs
		}
		var ref []int
		check := func(form string, eng congest.Engine, cds []int) {
			t.Helper()
			if err := verify.CheckCDS(g, cds); err != nil {
				t.Fatalf("graph %s: %s on %v produced an invalid CDS: %v", ng.Name, form, eng, err)
			}
			if ref == nil {
				ref = cds
			} else if !slices.Equal(cds, ref) {
				t.Fatalf("graph %s: %s on %v diverges: %v vs %v", ng.Name, form, eng, cds, ref)
			}
		}
		for _, eng := range congest.Engines() {
			res, err := mcds.Solve(g, mcds.Params{Run: congest.Run{Sim: eng}})
			if err != nil {
				t.Fatalf("graph %s: Solve on %v: %v", ng.Name, eng, err)
			}
			check("stepped form", eng, res.CDS)

			inD, inCDS := make([]bool, g.N()), make([]bool, g.N())
			net := congest.NewNetwork(g, congest.Config{Engine: eng})
			if _, err := net.Run(mcds.BlockingProgram(g, arbmds.DefaultEps, g.N(), inD, inCDS)); err != nil {
				t.Fatalf("graph %s: blocking form on %v: %v", ng.Name, eng, err)
			}
			var cds []int
			for v, in := range inCDS {
				if in {
					cds = append(cds, v)
				}
			}
			check("blocking form", eng, cds)
		}
	}
}
