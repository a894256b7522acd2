package conformance

import (
	"congestds/internal/congest"
	"congestds/internal/graph"
	"congestds/internal/mcds"
)

// The connected-dominating-set family (internal/mcds) joins the corpus
// with one case, mcds-full: all three phases (threshold peel, flood-min
// orientation, two-hop connect). It registers independently written
// blocking and stepped forms, so the suite checks the protocol itself,
// not just the engines. The output serializes the CDS and DS indicator
// vectors plus both sizes: any divergence in peel joins, flood
// tie-breaking, parent selection or token forwarding changes the bytes. The corpus deliberately includes disconnected graphs
// and isolated nodes; the program forms handle them (one CDS per
// component), which is exactly what the differential harness needs.

func init() {
	Register(Case{Name: "mcds-full", Build: buildMcdsFull, BuildStep: buildMcdsFullStep})
}

func mcdsOutput(inD, inCDS []bool) func() []byte {
	return func() []byte {
		var buf []byte
		sizeD, sizeC := int64(0), int64(0)
		for v := range inD {
			if inD[v] {
				sizeD++
			}
			if inCDS[v] {
				sizeC++
			}
		}
		buf = appendInt(buf, sizeD)
		buf = appendInt(buf, sizeC)
		for v := range inD {
			b := int64(0)
			if inD[v] {
				b |= 1
			}
			if inCDS[v] {
				b |= 2
			}
			buf = appendInt(buf, b)
		}
		return buf
	}
}

func buildMcdsFull(g *graph.Graph) (congest.Program, func() []byte) {
	inD := make([]bool, g.N())
	inCDS := make([]bool, g.N())
	return mcds.BlockingProgram(g, 0.5, corpusDiam(g), inD, inCDS), mcdsOutput(inD, inCDS)
}

func buildMcdsFullStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	inD := make([]bool, g.N())
	inCDS := make([]bool, g.N())
	return mcds.StepProgram(g, 0.5, corpusDiam(g), inD, inCDS), mcdsOutput(inD, inCDS)
}

// corpusDiam is the diameter bound the corpus cases use: n is always safe
// (including on the disconnected corpus graphs) and keeps the cases
// parameter-free.
func corpusDiam(g *graph.Graph) int {
	if g.N() < 1 {
		return 1
	}
	return g.N()
}
