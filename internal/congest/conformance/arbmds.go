package conformance

import (
	"congestds/internal/arbmds"
	"congestds/internal/congest"
	"congestds/internal/graph"
)

// The bounded-arboricity peeling MDS (internal/arbmds) joins the corpus as
// the first full algorithm under differential test: its blocking form and
// its native StepProgram form are written independently (counter-based vs
// per-neighbour bookkeeping), so the suite holding them byte-identical
// across both engines checks the algorithm's own protocol, not just
// the engines. The output serializes every node's membership bit plus the
// set size, so any divergence in joins — ordering, tie-breaking, support
// accounting — changes the bytes.

func init() {
	Register(Case{Name: "arbmds-peel", Build: buildArbmds, BuildStep: buildArbmdsStep})
}

func arbmdsOutput(inD []bool) func() []byte {
	return func() []byte {
		var buf []byte
		size := int64(0)
		for _, in := range inD {
			if in {
				size++
			}
		}
		buf = appendInt(buf, size)
		for _, in := range inD {
			b := int64(0)
			if in {
				b = 1
			}
			buf = appendInt(buf, b)
		}
		return buf
	}
}

func buildArbmds(g *graph.Graph) (congest.Program, func() []byte) {
	inD := make([]bool, g.N())
	return arbmds.BlockingProgram(g, 0.5, inD), arbmdsOutput(inD)
}

func buildArbmdsStep(g *graph.Graph) (congest.StepProgram, func() []byte) {
	inD := make([]bool, g.N())
	return arbmds.StepProgram(g, 0.5, inD), arbmdsOutput(inD)
}
