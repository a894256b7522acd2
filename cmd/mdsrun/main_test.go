package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/obs"
)

// allAlgos is every -algo value mdsrun has ever accepted.
var allAlgos = []string{"paper", "thm1.1", "thm1.2", "cor1.3", "cds", "greedy", "exact", "arbmds", "mcds"}

// Regression test for the unknown-algorithm error: it must list every
// valid -algo value, mirroring the graph.Named unknown-family fix. Before
// this, the error was a bare `unknown algorithm "x"` and users had to read
// the source to find the valid names.
func TestUnknownAlgoErrorListsAlgorithms(t *testing.T) {
	code, _, stderr := runCase(t, "-algo", "frobnicate")
	if code != exitUsage {
		t.Fatalf("exit %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr, `"frobnicate"`) {
		t.Errorf("error does not echo the bad name: %q", stderr)
	}
	for _, want := range allAlgos {
		if !strings.Contains(stderr, want) {
			t.Errorf("error does not list %q: %q", want, stderr)
		}
	}
}

// The -algo help lists the registry, sorted, with every algorithm in it.
func TestAlgoNamesSortedAndComplete(t *testing.T) {
	names := family.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("family.Names not sorted: %v", names)
	}
	for _, want := range allAlgos {
		if !slices.Contains(names, want) {
			t.Errorf("algorithm %q missing from the registry: %v", want, names)
		}
	}
	_, _, stderr := runCase(t, "-h")
	if list := strings.Join(names, " | "); !strings.Contains(stderr, list) {
		t.Errorf("-algo help does not list %q:\n%s", list, stderr)
	}
}

// TestGoldenEquivalence pins every -algo value's set and round count on a
// small connected gnp graph (n ≤ 64, so exact runs) to the values the
// builtin-switch dispatch printed before every algorithm moved into the
// family registry (testdata/golden.txt).
func TestGoldenEquivalence(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{} // algo -> "rounds=R members=[...]"
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		algo, rest, _ := strings.Cut(line, " ")
		want[algo] = rest
	}
	for _, algo := range allAlgos {
		t.Run(algo, func(t *testing.T) {
			if _, ok := want[algo]; !ok {
				t.Fatalf("no golden line for %s", algo)
			}
			code, stdout, stderr := runCase(t, "-family", "gnp", "-n", "48", "-seed", "3", "-algo", algo, "-v")
			if code != exitOK {
				t.Fatalf("exit %d\nstderr: %s", code, stderr)
			}
			var rounds, members string
			for _, line := range strings.Split(stdout, "\n") {
				if v, ok := strings.CutPrefix(line, "rounds: "); ok {
					rounds = v
				}
				if v, ok := strings.CutPrefix(line, "members: "); ok {
					members = v
				}
			}
			if got := "rounds=" + rounds + " members=" + members; got != want[algo] {
				t.Errorf("got  %s\nwant %s\nstdout:\n%s", got, want[algo], stdout)
			}
		})
	}
}

// failCert is a Certificate that never passes, backing the exit-code-3
// regression family.
type failCert struct{}

func (failCert) String() string { return "deliberately failing certificate" }
func (failCert) Passed() bool   { return false }

func init() {
	// A family whose output always fails certification: the only way to
	// exercise exit code 3 without planting a bug in a real algorithm.
	family.Register(family.Family{
		Name:    "testbadcert",
		Summary: "test-only family with a failing certificate",
		Solve: func(g *graph.Graph, p family.Params) (*family.Result, error) {
			return &family.Result{Set: []int{0}, Cert: failCert{}}, nil
		},
	})
}

// runCase captures one invocation.
func runCase(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes pins the scripting contract documented in the package
// comment: 0 success, 1 run failure (+ sentinel line), 2 usage, 3
// certification violation.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		want     int
		inStderr string
	}{
		{"success", []string{"-family", "gnp", "-n", "40", "-algo", "greedy"}, 0, ""},
		{"success-family", []string{"-family", "gnp", "-n", "60", "-algo", "arbmds"}, 0, ""},
		{"bad-flag", []string{"-no-such-flag"}, 2, ""},
		{"positional-args", []string{"stray"}, 2, "unexpected arguments"},
		{"unknown-algo", []string{"-algo", "nope"}, 2, "unknown algorithm"},
		{"unknown-sim", []string{"-sim", "stepped"}, 2, "flag provided but not defined: -sim"},
		{"unknown-graph-family", []string{"-family", "nope", "-algo", "greedy"}, 1, ""},
		{"negative-n", []string{"-n", "-5", "-algo", "greedy"}, 1, "n = -5"},
		{"exact-too-big", []string{"-algo", "exact", "-n", "100"}, 2, "n ≤ 64"},
		{"eps-out-of-range", []string{"-algo", "thm1.2", "-eps", "2"}, 2, "sentinel config"},
		{"eps-negative", []string{"-n", "40", "-algo", "thm1.2", "-eps", "-1"}, 2, "sentinel config"},
		{"diam-negative", []string{"-n", "40", "-algo", "mcds", "-diam", "-5"}, 2, "sentinel config"},
		{"deadline-negative", []string{"-n", "40", "-algo", "greedy", "-deadline", "-1s"}, 2, "-deadline must be >= 0"},
		{"retired-ckpt", []string{"-algo", "arbmds", "-ckpt", "x.ckpt"}, 2, "flag provided but not defined: -ckpt"},
		{"missing-input", []string{"-in", "no/such/file.csrg", "-algo", "greedy"}, 1, ""},
		{"cert-violation", []string{"-family", "gnp", "-n", "20", "-algo", "testbadcert"}, 3, "certification violation"},
		{"deadline", []string{"-family", "gnp", "-n", "80", "-algo", "arbmds", "-deadline", "1ns"}, 1, "sentinel deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runCase(t, c.args...)
			if code != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, code, c.want, stderr)
			}
			if c.inStderr != "" && !strings.Contains(stderr, c.inStderr) {
				t.Fatalf("run(%v): stderr %q does not contain %q", c.args, stderr, c.inStderr)
			}
		})
	}
}

// TestTelemetryFlags: the observability surface end to end — -profile
// prints the profile table, -trace writes a JSONL stream that replays into
// the same round count the run reported, -trace-chrome writes valid JSON,
// and the pprof flags leave non-empty profiles behind. All riding one
// small stepped run.
func TestTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	chrome := filepath.Join(dir, "run.chrome.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	code, stdout, stderr := runCase(t,
		"-family", "gnp", "-n", "120", "-algo", "arbmds",
		"-profile", "-trace", trace, "-trace-chrome", chrome,
		"-pprof-cpu", cpu, "-pprof-heap", heap)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"profile:", "round wall time", "message size histogram"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}

	// The trace replays into a profile agreeing with the printed one on
	// round count (the profile line renders "N rounds").
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	agg := obs.NewAggregator()
	if err := obs.Replay(f, agg); err != nil {
		t.Fatalf("replay: %v", err)
	}
	p := agg.Profile()
	if p.Rounds == 0 {
		t.Error("replayed trace has no rounds")
	}
	if !strings.Contains(stdout, fmt.Sprintf("%d rounds", p.Rounds)) {
		t.Errorf("printed profile disagrees with replayed trace (%d rounds):\n%s", p.Rounds, stdout)
	}

	var anyJSON []any
	chromeBytes, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatalf("chrome file: %v", err)
	}
	if err := json.Unmarshal(chromeBytes, &anyJSON); err != nil {
		t.Errorf("chrome trace is not a JSON array: %v", err)
	}
	for _, path := range []string{cpu, heap} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("pprof file %s missing or empty (err=%v)", path, err)
		}
	}
}

// TestProfilePrintsLedgerWall: on a pipeline algorithm the profile output
// includes the ledger with observer-attributed per-phase wall time.
func TestProfilePrintsLedgerWall(t *testing.T) {
	code, stdout, stderr := runCase(t, "-family", "gnp", "-n", "60", "-algo", "paper", "-profile")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ledger:") || !strings.Contains(stdout, "wall=") {
		t.Errorf("profile output missing wall-annotated ledger:\n%s", stdout)
	}
}

// updateGolden rewrites testdata/profile.golden instead of comparing
// against it (after a deliberate change to what a run computes).
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/profile.golden from the current runs")

// profileGraphs and profileAlgos span testdata/profile.golden: every
// algorithm that runs on the engine, on a sparse random graph, a high-Δ
// preferential-attachment graph and a grid.
var (
	profileGraphs = [][]string{
		{"-family", "gnp", "-n", "1500", "-seed", "4"},
		{"-family", "ba", "-n", "2000", "-seed", "4"},
		{"-family", "grid", "-n", "900", "-seed", "1"},
	}
	profileAlgos = []string{"thm1.1", "thm1.2", "cor1.3", "cds", "arbmds", "mcds"}
)

// ledgerWall matches the ledger's wall-time columns, the only timing
// fields printed ahead of the profile's timings.
var ledgerWall = regexp.MustCompile(`,? wall=\S+`)

// countsOf reduces `mdsrun -profile -v` output to what the run computes:
// it drops everything from the profile's timings on and the ledger's wall
// columns, and digests the members line.
func countsOf(stdout string) string {
	var b strings.Builder
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "wall: ") {
			break
		}
		if v, ok := strings.CutPrefix(line, "members: "); ok {
			sum := sha256.Sum256([]byte(v))
			line = fmt.Sprintf("members: sha256 %x", sum[:8])
		}
		b.WriteString(ledgerWall.ReplaceAllString(line, ""))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestProfileGolden pins what every engine-run algorithm computes on three
// graphs: the result lines, the members (as a digest), the profile's
// counts — rounds, node-steps, msgs, bits, the message-size histogram and
// the arena events — and every ledger row, measured and charged. A change
// that moves any of them shows as a diff of testdata/profile.golden;
// re-record it with
//
//	go test ./cmd/mdsrun -run TestProfileGolden -update-golden
//
// only after a change that means to move them, and say why.
func TestProfileGolden(t *testing.T) {
	var got strings.Builder
	for _, gr := range profileGraphs {
		for _, algo := range profileAlgos {
			args := append(append([]string{}, gr...), "-algo", algo, "-profile", "-v")
			code, stdout, stderr := runCase(t, args...)
			if code != exitOK {
				t.Fatalf("mdsrun %s: exit %d\nstderr: %s", strings.Join(args, " "), code, stderr)
			}
			fmt.Fprintf(&got, "== mdsrun %s\n%s", strings.Join(args, " "), countsOf(stdout))
		}
	}
	path := filepath.Join("testdata", "profile.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("profile.golden differs at line %d:\ngot  %q\nwant %q", i+1, g, w)
			}
		}
	}
}
