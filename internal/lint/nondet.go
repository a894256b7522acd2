package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"congestds/internal/lint/analysis"
)

// NonDet bans ambient-entropy reads inside the deterministic packages:
// wall-clock (time.Now/Since/Until), the process-global math/rand source
// (any package-level rand function — seeded rand.New(rand.NewSource(s))
// values remain fine), process identity (os.Getpid/Getppid), and select
// statements with two or more communication cases (the runtime picks a
// ready case pseudo-randomly). A read that is wall-clock-dependent by
// design would carry a reviewed //detlint:allow nondet annotation; the
// engines need none, because deadlines reach them as a context.Context
// (congest.Config.Ctx). The obs package alone gets a standing wall-clock
// carve-out (timestamping telemetry is its charter;
// docs/ARCHITECTURE.md#observability) — every other ban still applies
// there, keeping traces rand- and pid-free.
var NonDet = &analysis.Analyzer{
	Name: "nondet",
	Doc: "bans wall-clock, global math/rand, process identity and multi-case " +
		"select in the deterministic packages",
	Run: runNonDet,
}

// bannedFuncs maps package path → function name → short description of
// the entropy source.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
	"os": {
		"Getpid":  "process identity",
		"Getppid": "process identity",
	},
}

func runNonDet(pass *analysis.Pass) (any, error) {
	if !Deterministic(pass.Pkg.Name()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					return true // methods (e.g. on a seeded *rand.Rand) are fine
				}
				path, name := fn.Pkg().Path(), fn.Name()
				if path == "time" && pass.Pkg.Name() == "obs" {
					return true // obs's charter is stamping telemetry
				}
				if why, ok := bannedFuncs[path][name]; ok {
					pass.Reportf(n.Pos(),
						"%s %s.%s in deterministic package %q: outputs must be reproducible across runs and hosts; derive it from the seed or annotate //detlint:allow nondet <reason>",
						why, path, name, pass.Pkg.Name())
					return true
				}
				if (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New") {
					pass.Reportf(n.Pos(),
						"global math/rand source %s.%s in deterministic package %q: the process-wide generator is seeded with entropy; thread a seeded *rand.Rand instead",
						path, name, pass.Pkg.Name())
				}
			case *ast.SelectStmt:
				comm := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comm++
					}
				}
				if comm >= 2 {
					pass.Reportf(n.Pos(),
						"select with %d communication cases in deterministic package %q: the runtime picks a ready case pseudo-randomly; use an explicit priority order or annotate //detlint:allow nondet <reason>",
						comm, pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
