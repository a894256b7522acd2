package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"congestds/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/quick.golden (only after a deliberate change to the experiment tables)")

// TestExitCodes pins the scripting contract: 2 for misuse, 1 for run
// failures, 3 is reserved for claim violations.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		want     int
		inStderr string
	}{
		{"bad-flag", []string{"-no-such-flag"}, 2, ""},
		{"positional-args", []string{"stray"}, 2, "unexpected arguments"},
		{"unknown-sim", []string{"-sim", "stepped"}, 2, "flag provided but not defined: -sim"},
		{"unknown-experiment", []string{"-quick", "-only", "E999"}, 2, "unknown experiment"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(c.args, &out, &errb)
			if code != c.want {
				t.Fatalf("run(%v) = %d, want %d\nstderr: %s", c.args, code, c.want, errb.String())
			}
			if c.inStderr != "" && !strings.Contains(errb.String(), c.inStderr) {
				t.Fatalf("run(%v): stderr %q does not contain %q", c.args, errb.String(), c.inStderr)
			}
		})
	}
}

// TestQuickExperimentSucceeds: one real experiment end to end, exit 0.
func TestQuickExperimentSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: experiment tables are exercised by internal/experiments")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-only", "E1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "E1") {
		t.Fatalf("no E1 table in output:\n%s", out.String())
	}
}

// TestTraceFlagWritesReplayableTrace: -trace captures the experiment's
// engine runs as JSONL that replays cleanly.
func TestTraceFlagWritesReplayableTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: experiment tables are exercised by internal/experiments")
	}
	trace := filepath.Join(t.TempDir(), "bench.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-only", "E2", "-trace", trace}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	agg := obs.NewAggregator()
	if err := obs.Replay(f, agg); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if agg.Profile().Rounds == 0 {
		t.Error("trace contains no rounds")
	}
}

// TestQuickGolden pins the -quick tables byte-for-byte against a committed
// golden, so the experiment results cannot drift silently between commits
// (the output is deterministic and engine-independent). To regenerate after
// a deliberate change to the tables:
//
//	go test ./cmd/mdsbench -run TestQuickGolden -update-golden
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the full quick suite takes seconds")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	path := filepath.Join("testdata", "quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("-quick output diverges from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
