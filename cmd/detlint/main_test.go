package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTool compiles detlint (the package under test, the working
// directory of go test) into a temp dir and returns its absolute path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "detlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building detlint: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes a throwaway module for vetting: files maps
// relative path to contents; a minimal go.mod is added.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module vetprobe\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runVet(t *testing.T, tool, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+tool, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

// TestVersionHandshake pins the -V=full contract: cmd/go hashes the line
// into its build cache key, so the format must stay parseable and the
// buildID must be a content digest.
func TestVersionHandshake(t *testing.T) {
	tool := buildTool(t)
	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	re := regexp.MustCompile(`^detlint version \S+ comments-go-here buildID=[0-9a-f]{64}\n$`)
	if !re.Match(out) {
		t.Errorf("-V=full output %q does not match %v", out, re)
	}

	flags, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(flags)) != "[]" {
		t.Errorf("-flags = %q, want []", flags)
	}

}

// TestVetToolFindings drives the real `go vet -vettool` protocol end to
// end: cmd/go invokes detlint with a .cfg per compilation unit, and a
// deterministic-package map range and wall-clock read must each surface
// as a vet failure.
func TestVetToolFindings(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"graph/graph.go": `package graph

// Degrees leaks map order into its output.
func Degrees(deg map[int]int) []int {
	var out []int
	for _, d := range deg {
		out = append(out, d)
	}
	return out
}
`,
		"chaos/chaos.go": `package chaos

import "time"

// Jitter reads the wall clock in a deterministic package.
func Jitter() int64 { return time.Now().UnixNano() }
`,
		// A host-side package with the same code must stay silent.
		"tools/tools.go": `package tools

func Degrees(deg map[int]int) []int {
	var out []int
	for _, d := range deg {
		out = append(out, d)
	}
	return out
}
`,
	})
	out, err := runVet(t, tool, dir)
	if err == nil {
		t.Fatalf("go vet succeeded, want maporder finding; output:\n%s", out)
	}
	if !strings.Contains(out, "range over map") || !strings.Contains(out, "graph.go") {
		t.Errorf("vet output missing maporder finding:\n%s", out)
	}
	if !strings.Contains(out, "wall-clock read time.Now") || !strings.Contains(out, "chaos.go") {
		t.Errorf("vet output missing nondet finding:\n%s", out)
	}
	if strings.Contains(out, "tools.go") {
		t.Errorf("vet flagged the non-deterministic package:\n%s", out)
	}
}

// TestVetToolClean pins the success path (exit 0, empty output) and that
// _test.go files are exempt from the determinism contracts even inside a
// deterministic package.
func TestVetToolClean(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"graph/graph.go": `package graph

// Sum is order-insensitive, so ranging the map is fine.
func Sum(w map[int]int) int {
	total := 0
	for _, v := range w {
		total += v
	}
	return total
}
`,
		"graph/graph_test.go": `package graph

import (
	"testing"
	"time"
)

// Tests may use wall clock and map ranges freely.
func TestSum(t *testing.T) {
	start := time.Now()
	m := map[int]int{1: 2}
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	if Sum(m) != 2 || len(keys) != 1 || start.IsZero() {
		t.Fatal("impossible")
	}
}
`,
	})
	out, err := runVet(t, tool, dir)
	if err != nil {
		t.Fatalf("go vet failed on clean module: %v\n%s", err, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("clean vet run produced output:\n%s", out)
	}
}

// TestStandaloneDriver pins that detlint has no driver of its own: run
// directly (`detlint ./...`, or no arguments) inside a module with a
// finding, it analyzes nothing and exits 1 with the vet-tool usage line.
func TestStandaloneDriver(t *testing.T) {
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"chaos/chaos.go": `package chaos

import "time"

// Jitter reads the wall clock in a deterministic package.
func Jitter() int64 { return time.Now().UnixNano() }
`,
	})
	for _, args := range [][]string{{"./..."}, nil} {
		cmd := exec.Command(tool, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOWORK=off")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("detlint %q: err=%v, want exit status 1", args, err)
		}
		if want := "usage: go vet -vettool=$(which detlint) ./...\n"; string(out) != want {
			t.Errorf("detlint %q output = %q, want %q", args, out, want)
		}
	}
}
