package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowMarker is the comment prefix that suppresses a detlint finding.
// The full grammar is
//
//	//detlint:allow <analyzer> <reason>
//
// written either as a trailing comment on the flagged line or as a
// standalone comment on the line directly above it. The reason is free
// text up to an embedded "//" (so test harness annotations can follow on
// the same comment) and must cite a doc anchor (<file>.md#<anchor>) or a test
// name — cmd/docscheck verifies the citation resolves.
const allowMarker = "//detlint:allow"

// An allow is one parsed suppression comment.
type allow struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// collectAllows parses every //detlint:allow comment in files. The
// directive must use the exact marker (no space after //, like
// //go:build); a close miss such as "// detlint:allow" is ignored here
// and caught by cmd/docscheck's formatting check.
func collectAllows(fset *token.FileSet, files []*ast.File) []*allow {
	var out []*allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowMarker) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowMarker)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //detlint:allowx — not the directive
				}
				// The reason runs to the end of the comment or to an
				// embedded "//" (linttest's want annotations ride there).
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				al := &allow{pos: c.Pos()}
				p := fset.Position(c.Pos())
				al.file, al.line = p.Filename, p.Line
				if len(fields) > 0 {
					al.analyzer = fields[0]
				}
				if len(fields) > 1 {
					al.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, al)
			}
		}
	}
	return out
}

// matchAllow returns the allow that covers a diagnostic from the named
// analyzer at pos, or nil. An allow on line L covers lines L and L+1:
// trailing comments suppress their own line, standalone comments the line
// below.
func matchAllow(allows []*allow, analyzer string, pos token.Position) *allow {
	for _, al := range allows {
		if al.analyzer != analyzer || al.file != pos.Filename {
			continue
		}
		if al.line == pos.Line || al.line == pos.Line-1 {
			return al
		}
	}
	return nil
}
