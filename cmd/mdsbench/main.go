// mdsbench regenerates the full experiment suite (E1..E12 plus E-arb and
// E-mcds) and prints one table per experiment; see EXPERIMENTS.md for the
// claim-by-claim record.
//
//	go run ./cmd/mdsbench [-quick] [-only E6]
//
// Million-node runs of one family are mdsrun's job, e.g.
// `mdsrun -family uforest -n 1000000 -algo arbmds` or `-in g.csrg`.
//
// Exit codes follow mdsrun's scripting contract: 0 success, 1 run failure
// (a final "sentinel <class>" stderr line names engine sentinels), 2 usage
// error, 3 claim violations in the generated tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"congestds/internal/congest"
	"congestds/internal/experiments"
	"congestds/internal/obs"
)

// Exit codes (see the package comment).
const (
	exitOK      = 0
	exitRun     = 1
	exitUsage   = 2
	exitCertify = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fail reports a run failure, naming the engine sentinel class when the
// error carries one.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "mdsbench: %v\n", err)
	if class := congest.SentinelClass(err); class != "" {
		fmt.Fprintf(stderr, "sentinel %s\n", class)
	}
	return exitRun
}

// run is main behind a testable seam.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "small instances (used by the test suite)")
	only := fs.String("only", "", "run a single experiment by ID (e.g. E6)")
	tracePath := fs.String("trace", "",
		"stream per-round engine telemetry of every experiment run to this file as JSONL (see internal/obs)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mdsbench: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(stderr, err)
		}
		rec := obs.NewRecorder(obs.NewJSONL(f))
		experiments.Observer = rec
		defer func() {
			experiments.Observer = nil
			if err := rec.Close(); err != nil {
				fmt.Fprintf(stderr, "mdsbench: trace: %v\n", err)
			}
		}()
	}
	violations, matched := 0, false
	for _, e := range experiments.Suite() {
		if *only != "" && e.ID != *only {
			continue
		}
		matched = true
		t := e.Run(*quick)
		fmt.Fprintln(stdout, t)
		violations += t.Violations
	}
	if !matched {
		ids := make([]string, 0, len(experiments.Suite()))
		for _, e := range experiments.Suite() {
			ids = append(ids, e.ID)
		}
		fmt.Fprintf(stderr, "mdsbench: unknown experiment %q (experiments: %s)\n", *only, strings.Join(ids, ", "))
		return exitUsage
	}
	if violations > 0 {
		fmt.Fprintf(stderr, "mdsbench: %d claim violations\n", violations)
		return exitCertify
	}
	return exitOK
}
