package mcds_test

import (
	"slices"
	"testing"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/congest/conformance"
	"congestds/internal/mcds"
	"congestds/internal/verify"
)

// Cross-engine property test for the connector: on every connected graph
// of the conformance corpus, the independently written stepped (Connect)
// and blocking (ConnectBlocking) forms must produce the identical CDS on
// every engine, and it must pass the connectivity certificate. This is the
// package-level companion to the registered mcds-connect conformance case:
// it goes through the Connect API with a different dominating set per
// graph (the greedy baseline), so a wiring bug in the fold — not just in
// the protocol — shows up here.
func TestConnectCrossEngine(t *testing.T) {
	for _, ng := range conformance.Corpus(testing.Short()) {
		g := ng.G
		if !g.IsConnected() || g.N() == 0 {
			continue // the connector contract (one CDS) is for connected graphs
		}
		ds := baseline.Greedy(g)
		inD := make([]bool, g.N())
		for _, v := range ds {
			inD[v] = true
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
			res, err := mcds.Connect(g, ds, mcds.Params{Run: congest.Run{Sim: eng}})
			if err != nil {
				t.Fatalf("graph %s: Connect on %v: %v", ng.Name, eng, err)
			}
			check("stepped form", eng, res.CDS)

			inCDS := make([]bool, g.N())
			net := congest.NewNetwork(g, congest.Config{Engine: eng})
			if _, err := net.Run(mcds.ConnectBlocking(g, inD, g.N(), inCDS)); err != nil {
				t.Fatalf("graph %s: blocking connector on %v: %v", ng.Name, eng, err)
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
