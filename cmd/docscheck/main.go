// docscheck is the repository's documentation guard, run by the CI docs
// job:
//
//	go run ./cmd/docscheck [-root .]
//
// It enforces five invariants and exits non-zero listing every violation:
//
//   - every relative link in a Markdown file points at a file or directory
//     that exists (external http(s)/mailto links and pure #anchors are not
//     checked — the guard is against dead intra-repo references, the kind
//     a refactor silently leaves behind);
//   - every Markdown file (and heading anchor) a Go comment cites, like
//     `docs/ARCHITECTURE.md#substitutions`, exists — resolved against the
//     citing file's directory first, then the repository root;
//   - every Go package under internal/ and cmd/ has a package doc comment
//     in the `// Package <name> ...` (or `// <command> ...` for main
//     packages) convention, so `go doc` output stays self-explanatory;
//   - every `//detlint:allow <analyzer> <reason>` suppression outside
//     testdata carries a reason that references something real: a
//     Markdown anchor that exists (like
//     `docs/ARCHITECTURE.md#static-guarantees`) or a `Test*` function
//     defined in the tree. detlint itself rejects reasonless and stale
//     allows; this check closes the loop so a reason cannot cite a doc
//     section or test that a later refactor deleted;
//   - every test a Markdown file cites as a backticked name, like
//     `TestQuickGolden`, `FuzzCSRGDecode` or `BenchmarkEngine`, is defined
//     in the tree; a trailing `...` cites a prefix (`TestDeadline...`) and
//     a `/subtest` suffix is ignored. At the repository root only
//     README.md and EXPERIMENTS.md are checked: the other root files keep
//     history and plans (CHANGES.md, ROADMAP.md) or quote other projects
//     (PAPERS.md, SNIPPETS.md), so they name tests that are gone, not yet
//     written or not this repository's.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	problems = append(problems, checkMarkdownLinks(*root)...)
	problems = append(problems, checkCommentDocRefs(*root)...)
	problems = append(problems, checkPackageComments(*root)...)
	problems = append(problems, checkAllowReasons(*root)...)
	problems = append(problems, checkMarkdownTestRefs(*root)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// linkRE matches Markdown inline links and images: [text](target).
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies that every relative link target in every
// *.md file under root exists on disk.
func checkMarkdownLinks(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".claude" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range linkRE.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip an in-file anchor; what must exist is the file.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: dead link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	sort.Strings(problems)
	return problems
}

// codeSpanRE matches a one-line Markdown code span: `content`.
var codeSpanRE = regexp.MustCompile("`([^`\n]+)`")

// testCiteRE matches a code span that cites a test: group 1 is the name,
// group 2 a trailing "..." (a prefix citation) or "/subtest".
var testCiteRE = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]+)(\.\.\.|/\S*)?$`)

// checkedRootDocs are the root-level Markdown files checkMarkdownTestRefs
// reads; every Markdown file below the root is read too.
var checkedRootDocs = map[string]bool{"README.md": true, "EXPERIMENTS.md": true}

// checkMarkdownTestRefs verifies that every Test/Fuzz/Benchmark name a
// Markdown file cites in a code span is defined in some _test.go file of
// the tree (by prefix when the citation ends in "..."). Only spans that
// consist of the name alone are citations; a name inside a longer span,
// such as a `go test -run` pattern, is not.
func checkMarkdownTestRefs(root string) []string {
	tests, err := collectTestNames(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: collecting test names: %v", err)}
	}
	defined := func(name string, prefix bool) bool {
		if !prefix {
			return tests[name]
		}
		for t := range tests {
			if strings.HasPrefix(t, name) {
				return true
			}
		}
		return false
	}
	var problems []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") || filepath.Dir(path) == filepath.Clean(root) && !checkedRootDocs[d.Name()] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				m := testCiteRE.FindStringSubmatch(span[1])
				if m != nil && !defined(m[1], m[2] == "...") {
					problems = append(problems, fmt.Sprintf("%s:%d: cites %s but no such test exists", path, i+1, span[0]))
				}
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	sort.Strings(problems)
	return problems
}

// checkPackageComments verifies that every Go package under root/internal
// and root/cmd carries a package doc comment on at least one of its
// non-test files, and that non-main packages follow the `// Package <name>`
// convention.
func checkPackageComments(root string) []string {
	var problems []string
	for _, sub := range []string{"internal", "cmd"} {
		base := filepath.Join(root, sub)
		if _, err := os.Stat(base); err != nil {
			continue
		}
		// Collect package directories: any directory holding .go files.
		dirs := map[string][]string{}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
				return nil
			}
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
			return nil
		})
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", base, err))
			continue
		}
		for dir, files := range dirs {
			pkgName, doc := "", ""
			for _, file := range files {
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, file, nil, parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					problems = append(problems, fmt.Sprintf("%s: %v", file, err))
					continue
				}
				pkgName = f.Name.Name
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					doc = f.Doc.Text()
				}
			}
			switch {
			case doc == "":
				problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, pkgName))
			case pkgName != "main" && !strings.HasPrefix(doc, "Package "+pkgName):
				problems = append(problems, fmt.Sprintf(
					"%s: package doc comment does not start with %q", dir, "Package "+pkgName))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// allowMarker is the suppression-comment prefix, kept in sync with
// internal/lint: only a comment whose raw text begins with the marker is
// a suppression — the marker quoted mid-prose or inside a diagnostic
// string literal is not.
const allowMarker = "//detlint:allow"

// docRefRE matches a Markdown citation, `<path>.md` with an optional
// `#<anchor>`: group 1 is the path, group 2 the anchor (empty when absent).
var docRefRE = regexp.MustCompile(`([A-Za-z0-9_./-]+\.md)\b(?:#([A-Za-z0-9-]+))?`)

// testRefRE matches a Go test-function citation inside a reason.
var testRefRE = regexp.MustCompile(`\bTest[A-Za-z0-9_]+\b`)

// headingRE matches Markdown ATX headings for anchor extraction.
var headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)

// walkGoComments calls fn with every comment of every Go file under root,
// skipping .git, .claude and testdata trees; where is the comment's
// "path:line".
func walkGoComments(root string, fn func(path, where, text string)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fn(path, fmt.Sprintf("%s:%d", path, fset.Position(c.Pos()).Line), c.Text)
			}
		}
		return nil
	})
}

// checkAllowReasons verifies that every //detlint:allow reason in
// non-testdata Go sources cites at least one reference that resolves: a
// Markdown anchor that exists or a test function defined somewhere in the
// tree. Dangling citations are reported individually, so a renamed
// heading or deleted test surfaces as exactly one problem line.
func checkAllowReasons(root string) []string {
	var problems []string
	tests, err := collectTestNames(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: collecting test names: %v", err)}
	}
	anchors := map[string]map[string]bool{} // md path (slash) -> anchor set

	err = walkGoComments(root, func(_, where, text string) {
		if !strings.HasPrefix(text, allowMarker) {
			return
		}
		rest := strings.TrimSpace(strings.TrimPrefix(text, allowMarker))
		analyzer, reason, _ := strings.Cut(rest, " ")
		reason = strings.TrimSpace(reason)
		if analyzer == "" || reason == "" {
			// detlint reports this too; repeat it here so the docs
			// job catches allows in files detlint cannot type-check.
			problems = append(problems, fmt.Sprintf(
				"%s: //detlint:allow needs an analyzer name and a reason", where))
			return
		}
		var docRefs [][]string
		for _, ref := range docRefRE.FindAllStringSubmatch(reason, -1) {
			if ref[2] != "" { // a reason cites a section, not a whole file
				docRefs = append(docRefs, ref)
			}
		}
		testRefs := testRefRE.FindAllString(reason, -1)
		for _, ref := range docRefs {
			mdPath, anchor := ref[1], ref[2]
			set, ok := anchors[mdPath]
			if !ok {
				set = loadAnchors(filepath.Join(root, filepath.FromSlash(mdPath)))
				anchors[mdPath] = set
			}
			if set == nil {
				problems = append(problems, fmt.Sprintf(
					"%s: allow reason cites %s#%s but %s does not exist", where, mdPath, anchor, mdPath))
			} else if !set[anchor] {
				problems = append(problems, fmt.Sprintf(
					"%s: allow reason cites %s#%s but that anchor does not exist", where, mdPath, anchor))
			}
		}
		for _, name := range testRefs {
			if !tests[name] {
				problems = append(problems, fmt.Sprintf(
					"%s: allow reason cites %s but no such test exists", where, name))
			}
		}
		// A dangling citation is already reported above; the generic
		// problem is for reasons that cite nothing checkable at all.
		if len(docRefs)+len(testRefs) == 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: allow reason for %s must cite an existing doc anchor (file.md#anchor) or Test* name", where, analyzer))
		}
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	sort.Strings(problems)
	return problems
}

// checkCommentDocRefs verifies that every Markdown file a Go comment cites
// exists, and so does the cited heading anchor. A path resolves against
// the citing file's directory first, then against root. URLs, testdata
// trees and //detlint:allow comments (checkAllowReasons resolves those)
// are skipped.
func checkCommentDocRefs(root string) []string {
	var problems []string
	anchors := map[string]map[string]bool{} // md path -> anchor set (nil: missing)
	load := func(path string) map[string]bool {
		set, ok := anchors[path]
		if !ok {
			set = loadAnchors(path)
			anchors[path] = set
		}
		return set
	}
	err := walkGoComments(root, func(path, where, text string) {
		if strings.HasPrefix(text, allowMarker) {
			return
		}
		for _, ref := range docRefRE.FindAllStringSubmatch(text, -1) {
			mdPath, anchor := ref[1], ref[2]
			if strings.HasPrefix(mdPath, "//") {
				continue // the tail of a URL
			}
			rel := filepath.FromSlash(mdPath)
			set := load(filepath.Join(filepath.Dir(path), rel))
			if set == nil {
				set = load(filepath.Join(root, rel))
			}
			switch {
			case set == nil:
				problems = append(problems, fmt.Sprintf("%s: comment cites %s but no such file exists", where, ref[0]))
			case anchor != "" && !set[anchor]:
				problems = append(problems, fmt.Sprintf("%s: comment cites %s but that anchor does not exist", where, ref[0]))
			}
		}
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: walking %s: %v", root, err))
	}
	sort.Strings(problems)
	return problems
}

// loadAnchors extracts the GitHub-style anchor slugs of every heading in a
// Markdown file; nil means the file does not exist.
func loadAnchors(path string) map[string]bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	set := map[string]bool{}
	for _, m := range headingRE.FindAllStringSubmatch(string(data), -1) {
		set[slugify(m[1])] = true
	}
	return set
}

// slugify reproduces GitHub's heading-to-anchor rule closely enough for
// ASCII headings: lowercase, drop punctuation, spaces become hyphens.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// testNameRE matches test/fuzz/benchmark declarations in _test.go files.
var testNameRE = regexp.MustCompile(`(?m)^func\s+((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\s*\(`)

// collectTestNames gathers every Test/Fuzz/Benchmark function name in the
// tree so allow reasons can cite them.
func collectTestNames(root string) (map[string]bool, error) {
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testNameRE.FindAllStringSubmatch(string(data), -1) {
			names[m[1]] = true
		}
		return nil
	})
	return names, err
}
