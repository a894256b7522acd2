// mdsrun runs one dominating set algorithm on one graph and prints the
// result with cost metrics and an approximation certificate.
//
//	go run ./cmd/mdsrun -family gnp -n 200 -algo thm1.2 -eps 0.5
//	go run ./cmd/mdsrun -in graph.txt -algo cds
//	go run ./cmd/mdsrun -in graph.csrg -algo arbmds   (zero-copy mmap)
//	go run ./cmd/mdsrun -family uforest -n 100000 -algo arbmds
//	go run ./cmd/mdsrun -family ba -n 100000 -algo mcds
//	go run ./cmd/mdsrun -family disk -n 150 -algo greedy -v
//
// Every -algo value is looked up in the algorithm registry
// (internal/family): the source paper's pipelines (thm1.1, thm1.2 and its
// alias paper, cor1.3, cds), the host-level baselines (greedy, exact) and
// the families beyond the paper (arbmds, mcds). Each carries its own
// certificate. Unknown names get an error listing every valid algorithm.
//
// Exit codes are scripting API, pinned by TestExitCodes:
//
//	0  success
//	1  run failure (graph unavailable, simulation aborted, ...); when the
//	   failure maps to an engine sentinel, a final "sentinel <class>" line
//	   on stderr names it (deadline, bandwidth, injected, ...)
//	2  usage error (bad flags, unknown algorithm, invalid
//	   combination), including a run the algorithm rejected as caller
//	   misuse ("sentinel config": eps out of range, exact on n > 64, ...)
//	3  certification violation: the run completed but its output failed
//	   the certificate — a bug, never a usage or environment problem
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/graph"
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

// usage reports a misuse and returns the usage exit code.
func usage(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "mdsrun: "+format+"\n", args...)
	return exitUsage
}

// fail reports a run failure, naming the engine sentinel class when the
// error carries one. It returns the usage exit code for the config class
// (the algorithm rejected its parameters) and the run-failure code
// otherwise.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "mdsrun: %v\n", err)
	class := congest.SentinelClass(err)
	if class != "" {
		fmt.Fprintf(stderr, "sentinel %s\n", class)
	}
	if class == "config" {
		return exitUsage
	}
	return exitRun
}

// violation reports an output that failed its certificate.
func violation(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "mdsrun: certification violation: "+format+"\n", args...)
	return exitCertify
}

// run is main behind a testable seam: parse, solve, certify, report.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	familyFlag := fs.String("family", "gnp", "graph family (see graphgen -list)")
	n := fs.Int("n", 100, "graph size")
	seed := fs.Uint64("seed", 1, "generator seed")
	in := fs.String("in", "",
		"read graph from file instead of generating (.csrg files are memory-mapped zero-copy)")
	algo := fs.String("algo", "thm1.2",
		"algorithm: "+strings.Join(family.Names(), " | ")+" (paper = thm1.2)")
	eps := fs.Float64("eps", 0.5, "approximation parameter ε")
	diam := fs.Int("diam", 0,
		"known diameter upper bound for orientation-phase algorithms (mcds); 0 = 2·ecc+2 from one host-side BFS")
	deadline := fs.Duration("deadline", 0,
		"wall-clock budget for the whole solve; overruns exit 1 with \"sentinel deadline\"")
	tracePath := fs.String("trace", "",
		"stream per-round telemetry to this file as JSONL (replayable: see internal/obs.Replay)")
	chromePath := fs.String("trace-chrome", "",
		"write a Chrome trace-event file of the run (open at chrome://tracing or ui.perfetto.dev)")
	profileFlag := fs.Bool("profile", false,
		"print a run profile after the solve: round-time percentiles, slowest rounds, message-size histogram, engine events")
	pprofCPU := fs.String("pprof-cpu", "", "write a CPU profile of the solve to this file (go tool pprof)")
	pprofHeap := fs.String("pprof-heap", "", "write a post-solve heap profile to this file (go tool pprof)")
	verbose := fs.Bool("v", false, "print the set members")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		return usage(stderr, "unexpected arguments: %v", fs.Args())
	}

	fam, err := family.Get(*algo)
	if err != nil {
		return usage(stderr, "%v", err)
	}
	if *deadline < 0 {
		return usage(stderr, "-deadline must be >= 0 (got %v)", *deadline)
	}

	// One budget for the whole solve: -deadline becomes a context shared by
	// every simulated phase, so multi-part pipelines cannot stack budgets.
	var ctx context.Context
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), *deadline)
		defer cancel()
	}

	var g *graph.Graph
	if *in != "" {
		var closer io.Closer
		g, closer, err = graph.Load(*in)
		if err == nil {
			// The mapping must outlive every use of g; the process exit
			// releases it, the deferred Close just keeps the path tidy.
			defer closer.Close()
		}
	} else {
		g, err = graph.Named(*familyFlag, *n, *seed)
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "graph: %v\n", g)

	params := family.Params{Eps: *eps, DiamBound: *diam, Ctx: ctx}
	if params.DiamBound == 0 && fam.NeedsDiam {
		// One host-side BFS; only paid for families that run an
		// orientation phase.
		params.DiamBound = g.DiamBound()
	}

	// Telemetry: one Recorder fans the run out to every requested sink.
	// Attaching it never changes the solve (the conformance suite pins
	// that), so the flags compose freely with every algorithm and engine.
	var rec *obs.Recorder
	var agg *obs.Aggregator
	if *tracePath != "" || *chromePath != "" || *profileFlag {
		var sinks []obs.Sink
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fail(stderr, err)
			}
			sinks = append(sinks, obs.NewJSONL(f))
		}
		if *chromePath != "" {
			f, err := os.Create(*chromePath)
			if err != nil {
				return fail(stderr, err)
			}
			sinks = append(sinks, obs.NewChrome(f))
		}
		if *profileFlag {
			agg = obs.NewAggregator()
			sinks = append(sinks, agg)
		}
		rec = obs.NewRecorder(sinks...)
		params.Observer = rec
	}
	// closeTrace flushes the sinks exactly once; the defer covers failure
	// exits so a partial trace of an aborted run still lands on disk.
	closeTrace := func() {
		if rec != nil {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(stderr, "mdsrun: trace: %v\n", err)
			}
			rec = nil
		}
	}
	defer closeTrace()

	// The CPU profile brackets the solve alone: started after graph load,
	// stopped right after Solve returns; the defer is the backstop on
	// failure exits.
	stopCPU := func() {}
	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			return fail(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(stderr, err)
		}
		var once sync.Once
		stopCPU = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				f.Close()
			})
		}
		defer stopCPU()
	}
	if *pprofHeap != "" {
		f, err := os.Create(*pprofHeap)
		if err != nil {
			return fail(stderr, err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "mdsrun: pprof-heap: %v\n", err)
			}
			f.Close()
		}()
	}

	res, err := fam.Solve(g, params)
	stopCPU()
	if err != nil {
		return fail(stderr, err)
	}
	if !res.Cert.Passed() {
		return violation(stderr, "%s output failed its certificate (bug): %v", *algo, res.Cert)
	}
	fmt.Fprintf(stdout, "%s certificate: %v\n", *algo, res.Cert)
	for _, note := range res.Notes {
		fmt.Fprintln(stdout, note)
	}
	fmt.Fprintf(stdout, "set size: %d\n", len(res.Set))
	fmt.Fprintf(stdout, "rounds: %d\n", res.Rounds)
	if *verbose {
		fmt.Fprintf(stdout, "members: %v\n", res.Set)
	}

	// The profile follows the result: its counts, the wall-annotated
	// ledger when the family keeps one, then its timings.
	if rec != nil {
		if res.Ledger != nil {
			obs.FillLedgerWall(res.Ledger, rec)
		}
		closeTrace()
		if agg != nil {
			p := agg.Profile()
			fmt.Fprint(stdout, p.Counts())
			if res.Ledger != nil {
				fmt.Fprintf(stdout, "ledger: %v\n", res.Ledger)
			}
			fmt.Fprint(stdout, p.Timings())
		}
	}
	return exitOK
}
