package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"congestds/internal/lint/analysis"
)

// Sentinel enforces the congest error taxonomy at its source: mdsrun and
// mdsbench pin exit codes to congest.SentinelClass, and the conformance
// suite diffs the class across engines, so an error that escapes the
// congest API as a bare errors.New or a non-wrapping fmt.Errorf silently
// lands in the catch-all "program" class and can never be matched with
// errors.Is. Inside package congest, every error returned from an
// exported function or method must therefore be nil, a declared Err*
// sentinel, a propagated value, or an fmt.Errorf that wraps (%w) — the
// deliberate exceptions (host-side config parsing) carry reviewed
// //detlint:allow sentinel annotations.
var Sentinel = &analysis.Analyzer{
	Name: "sentinel",
	Doc: "errors returned across the congest API boundary must wrap a declared " +
		"Err* sentinel (or %w-chain to one) so SentinelClass stays total",
	Run: runSentinel,
}

func runSentinel(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "congest" {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !returnsError(pass, fd) {
				continue
			}
			checkReturns(pass, fd.Body)
		}
	}
	return nil, nil
}

func returnsError(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if tv := pass.TypesInfo.Types[r.Type]; isErrorType(tv.Type) {
			return true
		}
	}
	return false
}

// checkReturns walks the return statements of body (not descending into
// function literals, which have their own result contract) and flags
// unclassifiable error constructions.
func checkReturns(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				checkErrorExpr(pass, res)
			}
		}
		return true
	})
}

func checkErrorExpr(pass *analysis.Pass, e ast.Expr) {
	tv := pass.TypesInfo.Types[e]
	if !isErrorType(tv.Type) {
		return
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return // nil, a sentinel var, a propagated err — all classified upstream
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return // a local helper call owns its own classification
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		pass.Reportf(e.Pos(),
			"errors.New escapes the congest API boundary unclassified: SentinelClass reports it as \"program\" and errors.Is can never match it; wrap a declared Err* sentinel with fmt.Errorf(\"...: %%w\", ErrX) or declare a new sentinel")
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING &&
			!strings.Contains(lit.Value, "%w") {
			pass.Reportf(e.Pos(),
				"fmt.Errorf without %%w escapes the congest API boundary unclassified (SentinelClass: \"program\"); wrap a declared Err* sentinel or annotate //detlint:allow sentinel <reason>")
		}
	}
}
