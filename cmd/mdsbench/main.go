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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"congestds/internal/congest"
	"congestds/internal/experiments"
	"congestds/internal/obs"
	"congestds/internal/testmem"
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

// jsonRow is one machine-readable result row (-json): the conventional
// columns lifted by header name when the table has them, every raw cell
// under "cols", and process-level cost figures. NsOp is the experiment's
// wall time amortized over its rows (exact for one-row tables);
// PeakRSS is the process high-water mark at emission, so it only grows
// down a run — the last row of an experiment bounds that experiment.
type jsonRow struct {
	ID         string            `json:"id"`
	Family     string            `json:"family,omitempty"`
	N          int64             `json:"n,omitempty"`
	Rounds     int64             `json:"rounds,omitempty"`
	Ratio      float64           `json:"ratio,omitempty"`
	OK         *bool             `json:"ok,omitempty"`
	NsOp       int64             `json:"ns_op"`
	PeakRSS    int64             `json:"peak_rss_bytes"`
	Violations int               `json:"violations"`
	Cols       map[string]string `json:"cols"`
}

// emitJSON writes one JSON object per table row.
func emitJSON(w io.Writer, t *experiments.Table, wallNs int64) error {
	col := func(row []string, name string) (string, bool) {
		for i, h := range t.Header {
			if h == name && i < len(row) {
				return row[i], true
			}
		}
		return "", false
	}
	nsOp := wallNs
	if len(t.Rows) > 1 {
		nsOp = wallNs / int64(len(t.Rows))
	}
	enc := json.NewEncoder(w)
	for _, row := range t.Rows {
		r := jsonRow{
			ID:         t.ID,
			NsOp:       nsOp,
			PeakRSS:    testmem.ReadVmHWM(),
			Violations: t.Violations,
			Cols:       make(map[string]string, len(t.Header)),
		}
		for i, h := range t.Header {
			if i < len(row) {
				r.Cols[h] = row[i]
			}
		}
		r.Family, _ = col(row, "family")
		if s, ok := col(row, "n"); ok {
			r.N, _ = strconv.ParseInt(s, 10, 64)
		}
		if s, ok := col(row, "rounds"); ok {
			r.Rounds, _ = strconv.ParseInt(s, 10, 64)
		}
		if s, ok := col(row, "ratio≤"); ok {
			r.Ratio, _ = strconv.ParseFloat(s, 64)
		}
		if s, ok := col(row, "ok"); ok {
			v := s == "true" || s == "ok"
			r.OK = &v
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// run is main behind a testable seam.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "small instances (used by the test suite)")
	only := fs.String("only", "", "run a single experiment by ID (e.g. E6)")
	sim := fs.String("sim", "stepped", "congest execution engine: stepped | goroutine (the reference engine)")
	jsonOut := fs.Bool("json", false,
		"emit one JSON object per result row instead of tables (id, family, n, rounds, ratio, ns_op, peak_rss_bytes, raw cells)")
	tracePath := fs.String("trace", "",
		"stream per-round engine telemetry of every experiment run to this file as JSONL (see internal/obs)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mdsbench: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}

	eng, err := congest.ParseEngine(*sim)
	if err != nil {
		fmt.Fprintf(stderr, "mdsbench: %v\n", err)
		return exitUsage
	}
	experiments.SimEngine = eng
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
		start := time.Now()
		t := e.Run(*quick)
		if *jsonOut {
			if err := emitJSON(stdout, t, int64(time.Since(start))); err != nil {
				fmt.Fprintf(stderr, "mdsbench: json: %v\n", err)
			}
		} else {
			fmt.Fprintln(stdout, t)
		}
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
