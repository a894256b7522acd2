package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The repository itself must pass every guard — this is the same
// check the CI docs job runs via `go run ./cmd/docscheck`.
func TestRepositoryPassesDocscheck(t *testing.T) {
	if problems := checkMarkdownLinks("../.."); len(problems) > 0 {
		t.Errorf("markdown link problems:\n%s", strings.Join(problems, "\n"))
	}
	if problems := checkCommentDocRefs("../.."); len(problems) > 0 {
		t.Errorf("Go comment doc-reference problems:\n%s", strings.Join(problems, "\n"))
	}
	if problems := checkPackageComments("../.."); len(problems) > 0 {
		t.Errorf("package comment problems:\n%s", strings.Join(problems, "\n"))
	}
	if problems := checkAllowReasons("../.."); len(problems) > 0 {
		t.Errorf("detlint allow-reason problems:\n%s", strings.Join(problems, "\n"))
	}
	if problems := checkMarkdownTestRefs("../.."); len(problems) > 0 {
		t.Errorf("Markdown test-citation problems:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckMarkdownLinksFindsDeadLink(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "doc.md")
	content := "see [good](doc.md), [web](https://example.com), [anchor](#x), [bad](missing/file.md)\n"
	if err := os.WriteFile(md, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	problems := checkMarkdownLinks(dir)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing/file.md") {
		t.Errorf("want exactly the dead link flagged, got %v", problems)
	}
}

// TestCheckCommentDocRefsFindsDangling: a Go comment citing a missing
// Markdown file or a missing anchor is one problem each; citations that
// resolve against the file's directory or the root, URLs and testdata
// trees are not problems.
func TestCheckCommentDocRefsFindsDangling(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("docs/GUIDE.md", "# Guide\n\n## Known Exceptions\n")
	write("pkg/README.md", "# pkg\n")
	write("pkg/ok.go", `// Package pkg: see docs/GUIDE.md#known-exceptions, README.md and
// https://example.com/elsewhere/NOTES.md.
package pkg
`)
	write("pkg/bad.go", `package pkg

// See DESIGN.md, substitution 4.
var a = 1

// See docs/GUIDE.md#gone-section.
var b = 2

var c = "DESIGN.md in a string literal is not a citation"
`)
	write("pkg/testdata/x.go", "// See MISSING.md.\npackage x\n")

	problems := checkCommentDocRefs(dir)
	wants := []string{
		"bad.go:3: comment cites DESIGN.md but no such file exists",
		"bad.go:6: comment cites docs/GUIDE.md#gone-section but that anchor does not exist",
	}
	if len(problems) != len(wants) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(wants), strings.Join(problems, "\n"))
	}
	for i, want := range wants {
		if !strings.Contains(problems[i], want) {
			t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], want)
		}
	}
}

// TestCheckMarkdownTestRefsFindsDangling: a backticked Test/Fuzz/Benchmark
// name with no definition in the tree is one problem, in docs below the
// root and in the checked root files alike; defined names, prefix
// citations that match, subtest suffixes, names inside longer spans, and
// the root's history and plan files are not problems.
func TestCheckMarkdownTestRefsFindsDangling(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pkg/a_test.go", `package pkg

import "testing"

func TestReal(t *testing.T)      {}
func FuzzReal(f *testing.F)      {}
func BenchmarkReal(b *testing.B) {}
`)
	write("README.md", "`TestReal`, `FuzzReal`, `BenchmarkReal/big`, `TestRe...`, `Test*`\n"+
		"`go test -run TestGone ./pkg` and `TestGone`\n")
	write("docs/GUIDE.md", "# Guide\n\nSee `FuzzGone` and `TestNo...`.\n")
	write(".claude/skills/x/SKILL.md", "`BenchmarkGone`\n")
	write("CHANGES.md", "Deleted `TestGone`.\n")
	write("ROADMAP.md", "Add `FuzzPlanned`.\n")
	write("pkg/testdata/notes.md", "`TestGone`\n")

	problems := checkMarkdownTestRefs(dir)
	wants := []string{
		"SKILL.md:1: cites `BenchmarkGone` but no such test exists",
		"README.md:2: cites `TestGone` but no such test exists",
		"GUIDE.md:3: cites `FuzzGone` but no such test exists",
		"GUIDE.md:3: cites `TestNo...` but no such test exists",
	}
	if len(problems) != len(wants) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(wants), strings.Join(problems, "\n"))
	}
	for _, want := range wants {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing problem containing %q in:\n%s", want, strings.Join(problems, "\n"))
		}
	}
}

func TestCheckPackageCommentsFindsMissing(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "nodoc")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "a.go"), []byte("package nodoc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems := checkPackageComments(dir)
	if len(problems) != 1 || !strings.Contains(problems[0], "no package doc comment") {
		t.Errorf("want the missing doc flagged, got %v", problems)
	}
	// A malformed doc (not starting with "Package <name>") is flagged too.
	if err := os.WriteFile(filepath.Join(pkg, "a.go"),
		[]byte("// some words\npackage nodoc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems = checkPackageComments(dir)
	if len(problems) != 1 || !strings.Contains(problems[0], "does not start with") {
		t.Errorf("want the malformed doc flagged, got %v", problems)
	}
}

// TestCheckAllowReasons pins the suppression-citation contract: a reason
// resolves through a real doc anchor or a real test name; dangling
// citations, reasonless allows, and reasons citing nothing are each one
// problem — while the marker quoted mid-prose or inside a string literal
// is not a suppression at all.
func TestCheckAllowReasons(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("docs/GUIDE.md", "# Guide\n\n## Known Exceptions\n\ntext\n")
	write("pkg/ok_test.go", "package pkg\n\nimport \"testing\"\n\nfunc TestReal(t *testing.T) {}\n")
	write("pkg/ok.go", `package pkg

//detlint:allow nondet reviewed, see docs/GUIDE.md#known-exceptions
var a = 1

//detlint:allow maporder covered by TestReal
var b = 2

// Prose mentioning //detlint:allow nondet is not a suppression.
var c = "annotate //detlint:allow nondet <reason>"
`)
	write("pkg/bad.go", `package pkg

//detlint:allow nondet see docs/GUIDE.md#gone-section
var d = 1

//detlint:allow nondet covered by TestVanished
var e = 2

//detlint:allow nondet because reasons
var f = 3

//detlint:allow nondet
var g = 4
`)
	// Suppression hygiene inside testdata trees is exercised on purpose;
	// the citation check must not reach into them.
	write("pkg/testdata/src/x/x.go", "package x\n\n//detlint:allow nondet no citation at all\nvar h = 1\n")

	problems := checkAllowReasons(dir)
	wants := []string{
		"bad.go:3: allow reason cites docs/GUIDE.md#gone-section but that anchor does not exist",
		"bad.go:6: allow reason cites TestVanished but no such test exists",
		"bad.go:9: allow reason for nondet must cite an existing doc anchor",
		"bad.go:12: //detlint:allow needs an analyzer name and a reason",
	}
	if len(problems) != len(wants) {
		t.Fatalf("got %d problems, want %d:\n%s", len(problems), len(wants), strings.Join(problems, "\n"))
	}
	for _, want := range wants {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing problem containing %q in:\n%s", want, strings.Join(problems, "\n"))
		}
	}
}
