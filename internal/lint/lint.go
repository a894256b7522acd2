// Package lint is detlint: the determinism-and-safety analyzer suite that
// proves, on every build, the source-level invariants the conformance
// corpus can only sample — no map-iteration-order leaks or wall-clock
// entropy in the deterministic packages, no retained payload views across
// arena generations, unsafe confined to the audited mmap files, and a
// congest API that cannot return errors outside the sentinel taxonomy.
//
// The suite has one driver, `go vet -vettool=$(which detlint) ./...` (see
// cmd/detlint). Analyzers are built on the offline go/analysis shim in
// internal/lint/analysis; each is a single-package check over the
// type-checked AST.
//
// A finding is suppressed by an explicit, reviewed annotation:
//
//	//detlint:allow <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory and must cite a doc anchor or a test name (cmd/docscheck
// enforces that), and a suppression that no longer suppresses anything is
// itself a finding — stale allows cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"congestds/internal/lint/analysis"
)

// deterministicPkgs names the packages whose code must be bit-reproducible
// across engines, runs and hosts: the CONGEST engines and their
// protocol/program layers, the graph generators, the fault injector, and
// every stage of the paper pipeline.
// maporder and nondet fire only inside these; host-side tools (cmd/*,
// internal/testmem, internal/experiments, ...) are exempt by omission —
// the offline stand-in for the facts-based whitelist the x/tools port
// would use.
var deterministicPkgs = map[string]bool{
	"congest":    true,
	"graph":      true,
	"arbmds":     true,
	"mcds":       true,
	"mds":        true,
	"chaos":      true,
	"fractional": true,
	// The paper pipeline's host-side stages: decomposition, colorings,
	// derandomization, rounding, the CDS connector, certification, set
	// cover, k-wise independence and its field, fixed point, baselines.
	"decomp":   true,
	"coloring": true,
	"derand":   true,
	"rounding": true,
	"cds":      true,
	"verify":   true,
	"setcover": true,
	"kwise":    true,
	"gf2":      true,
	"fixpoint": true,
	"baseline": true,
	// obs is deterministic-adjacent: it rides the engines' observer
	// callbacks, so map-order and entropy leaks there would surface in
	// traces, but nondet grants it the wall-clock carve-out (see nondet.go:
	// stamping telemetry is the package's charter).
	"obs": true,
}

// Deterministic reports whether pkgName is one of the packages held to
// byte-reproducibility (see deterministicPkgs).
func Deterministic(pkgName string) bool { return deterministicPkgs[pkgName] }

// Suite returns the full detlint analyzer suite in reporting order: the
// five repo-specific invariant checkers followed by a sound subset of the
// x/tools nilness pass, which stock go vet does not run. (Copied locks and
// lost cancels are stock vet passes, so detlint leaves them to go vet.)
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapOrder,
		NonDet,
		PayloadAlias,
		UnsafeGuard,
		Sentinel,
		Nilness,
	}
}

// suiteNames is the set of valid analyzer names for allow-comment
// validation.
func suiteNames() map[string]bool {
	m := map[string]bool{}
	for _, a := range Suite() {
		m[a.Name] = true
	}
	return m
}

// A Unit is one type-checked package ready for analysis: the parse and
// type artifacts plus the file subset the analyzers look at. cmd/detlint
// builds one per vet-tool compilation unit, and the linttest harness one
// per analyzer testdata package.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File // non-test files only; analyzers see exactly these
	Pkg   *types.Package
	Info  *types.Info
}

// Run applies the analyzers to the unit, enforces //detlint:allow
// suppression, and reports stale or malformed allow comments. The returned
// diagnostics are sorted by position then analyzer name. An error from an
// analyzer's Run is an infrastructure failure, not a finding.
func Run(u *Unit, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			diags = append(diags, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}
	allows := collectAllows(u.Fset, u.Files)
	valid := suiteNames()

	// Suppress findings covered by an allow on the same or preceding line.
	kept := diags[:0]
	for _, d := range diags {
		pos := u.Fset.Position(d.Pos)
		if al := matchAllow(allows, d.Category, pos); al != nil {
			al.used = true
			continue
		}
		kept = append(kept, d)
	}
	diags = kept

	// Malformed, unknown or stale allows are findings themselves.
	for _, al := range allows {
		switch {
		case !valid[al.analyzer]:
			diags = append(diags, analysis.Diagnostic{
				Pos:      al.pos,
				Category: "allow",
				Message: fmt.Sprintf("//detlint:allow names unknown analyzer %q (valid: %s)",
					al.analyzer, strings.Join(sortedNames(valid), ", ")),
			})
		case al.reason == "":
			diags = append(diags, analysis.Diagnostic{
				Pos:      al.pos,
				Category: "allow",
				Message: fmt.Sprintf("//detlint:allow %s needs a reason citing a doc anchor or test name",
					al.analyzer),
			})
		case !al.used && running[al.analyzer]:
			diags = append(diags, analysis.Diagnostic{
				Pos:      al.pos,
				Category: "allow",
				Message: fmt.Sprintf("stale //detlint:allow %s: no %s diagnostic on this or the next line — delete the suppression",
					al.analyzer, al.analyzer),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := u.Fset.Position(diags[i].Pos), u.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Category < diags[j].Category
	})
	return diags, nil
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// exprString renders a (small) expression for diagnostics without
// dragging in go/printer's formatting state.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	default:
		return "expression"
	}
}

// isErrorType reports whether t is (or trivially wraps) the built-in
// error interface type.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	it, ok := t.Underlying().(*types.Interface)
	return ok && it.NumMethods() == 1 && it.Method(0).Name() == "Error"
}
