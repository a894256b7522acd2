// bench is the repository benchmark. It drives four workloads through the
// public entry points of the graph, congest, mds, family, verify and serve
// packages — the calls cmd/mdsrun and cmd/mdsd make — checks every answer,
// and prints end-to-end and per-layer metrics. Run it from the repository
// root. bench is a module of its own, self-contained with its own go.mod
// (README.md says why), so `go run ./bench` does not find it and
// bench/run.sh builds it:
//
//	bash bench/run.sh -seed 1                    # every workload, each in its own child process
//	bash bench/run.sh -workload arb-1m -seed 3   # one workload
//	bash bench/run.sh -seed 1 -trace DIR         # add a traced pass: spans, Chrome trace, per-layer metrics
//	bash bench/run.sh -compare A.jsonl B.jsonl   # medians, quartiles and a verdict per metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each run also appends a record
// (machine block, metrics, raw per-op samples) to the -out file. Exit
// codes: 0 success, 1 a wrong answer, a failed op, a run that could not run
// or a regression found by -compare, 2 usage. bench/README.md describes
// the workloads, metrics and bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workloads are the benchmark's workloads, in run order; BENCHMARK.json
// lists the same names and reasons.
var workloads = []workload{
	{name: "paper-thm12", setup: setupBatch(paperThm12),
		why: "the paper's Thm 1.2 pipeline on the default engine: the only workload with Part II/III host-side derandomization and the goroutine engine"},
	{name: "arb-1m", setup: setupBatch(arb1M),
		why: "arbmds on a 10^6-node graph mmapped per op, stepped engine: engine sweep, delivery and memory at scale plus .csrg load and certification"},
	{name: "serve-hot", setup: setupServe(serveHot),
		why: "assumed mdsd traffic (none recorded yet): Zipf reads of 12 pre-warmed keys, all cache hits, so only the request path and net/http run; engine changes must not show here"},
	{name: "serve-churn", setup: setupServe(serveChurn),
		why: "assumed mdsd traffic (none recorded yet): 96 keys on 4 topologies, more than cache and graph store hold: engine runs, certify, eviction, graph reload, coalescing"},
}

const (
	exitOK    = 0
	exitFail  = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  int
	traceDir string // "" = no traced pass
	out      string
	buildDir string // where generated inputs go
	tiny     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: every workload, each in its own child process)")
	seed := fs.Uint64("seed", 1, "workload seed; graph seeds and request schedules derive from it")
	seconds := fs.Int("seconds", runSeconds, "measured seconds per run; a traced run splits them between its untraced and traced pass")
	trace := fs.String("trace", "0", "0: no traced pass; 1: traced pass, spans in a trace directory next to the -out file; any other value: traced pass, spans in that directory")
	out := fs.String("out", ".bench_build/runs.jsonl", "append each run record to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two run files given as arguments: -compare A.jsonl B.jsonl")
	tiny := fs.Bool("tiny", false, "test-sized inputs through the same code paths: a smoke run, not a measurement")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two run files")
			return exitUsage
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		switch {
		case err != nil:
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return exitFail
		case regressed:
			return exitFail
		}
		return exitOK
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return exitUsage
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return exitUsage
	}
	// Generated graphs and default traces go next to the run file.
	o := options{seed: *seed, seconds: *seconds, out: *out, buildDir: filepath.Dir(*out), tiny: *tiny}
	switch *trace {
	case "0":
	case "1":
		o.traceDir = filepath.Join(o.buildDir, "trace")
	default:
		o.traceDir = *trace
	}
	if *name == "" {
		return runAll(args, o, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (workloads: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return exitUsage
	}
	rec, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFail
	}
	if err := appendRecord(o.out, rec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFail
	}
	if err := printResult(stdout, rec.Correct, rec.Attempted, rec.Failed, resultMetrics(rec)); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFail
	}
	if !rec.Correct {
		for _, e := range rec.Errors {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
		}
		return exitFail
	}
	if rec.Failed > 0 {
		fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed\n", w.name, rec.Failed, rec.Attempted)
		return exitFail
	}
	return exitOK
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll runs every workload in a child process of its own, so each
// peak_rss_mib belongs to one workload, and merges their result lines.
func runAll(args []string, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFail
	}
	correct, exited0, attempted, failed := true, true, 0, 0
	metrics := map[string]metricValue{}
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		runErr := cmd.Run()
		exited0 = exited0 && runErr == nil
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		last := lines[len(lines)-1]
		fmt.Fprintln(stdout, strings.Join(lines[:len(lines)-1], "\n"))
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result line (%v)\n", w.name, runErr)
			correct = false
			continue
		}
		// A child that failed ops exits 1 with correct answers; that
		// failure shows in failed and in the exit code, not in correct.
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
		for k, v := range res.Metrics {
			metrics[w.name+"/"+k] = v
		}
	}
	if err := printResult(stdout, correct, attempted, failed, metrics); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitFail
	}
	if !correct || !exited0 {
		return exitFail
	}
	return exitOK
}

// metricValue is one metric as the result line and run records carry it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(w io.Writer, correct bool, attempted, failed int, metrics map[string]metricValue) error {
	b, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// record is one run as the -out file keeps it.
type record struct {
	Workload     string                 `json:"workload"`
	Seed         uint64                 `json:"seed"`
	Seconds      int                    `json:"seconds"`
	Traced       bool                   `json:"traced"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	OutputDigest string                 `json:"output_digest"`
	Metrics      map[string]metricValue `json:"metrics"`
	Samples      samples                `json:"samples"`
	Machine      machine                `json:"machine"`
	Errors       []string               `json:"errors,omitempty"`
}

// samples are a run's raw measurements.
type samples struct {
	SetupS          []float64 `json:"setup_s"`
	RequestMs       []float64 `json:"request_ms"`
	TracedRequestMs []float64 `json:"traced_request_ms,omitempty"`
}

// resultMetrics picks the metrics the result line carries: every
// end-to-end metric from an untraced run, every per-layer metric from a
// traced one.
func resultMetrics(rec record) map[string]metricValue {
	list := endToEnd
	if rec.Traced {
		list = perLayer
	}
	m := map[string]metricValue{}
	for _, d := range list {
		m[d.Name] = rec.Metrics[d.Name]
	}
	return m
}

// runWorkload runs w's untraced pass and, when tracing, its traced pass,
// prints the metrics table and returns the run record.
func runWorkload(w workload, o options, stdout io.Writer) (record, error) {
	rec := record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traceDir != "",
		Machine: readMachine(), Metrics: map[string]metricValue{}}
	window := time.Duration(o.seconds) * time.Second
	if rec.Traced {
		window /= 2
	}
	workDir := filepath.Join(o.buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	p, err := runPass(w, o.seed, window, false, o.tiny, workDir)
	if err != nil {
		return rec, err
	}
	units := defsByName()
	for k, v := range p.endToEnd() {
		rec.Metrics[k] = metricValue{Value: v, Unit: units[k].Unit}
	}
	rec.Attempted, rec.Failed = p.attempted, p.failed
	rec.OutputDigest = p.gate.digest
	rec.Samples = samples{SetupS: p.setupS, RequestMs: p.latMs}
	errs := p.wrong
	var tp *pass
	if rec.Traced {
		if tp, err = runPass(w, o.seed, window, true, o.tiny, workDir); err != nil {
			return rec, err
		}
		for k, v := range tp.perLayer(p) {
			rec.Metrics[k] = metricValue{Value: v, Unit: units[k].Unit}
		}
		rec.Attempted += tp.attempted
		rec.Failed += tp.failed
		rec.Samples.TracedRequestMs = tp.latMs
		errs = append(errs, tp.wrong...)
		if len(tp.wrong) == 0 && tp.gate.digest != p.gate.digest {
			errs = append(errs, fmt.Errorf("traced pass output digest %s differs from the untraced %s", tp.gate.digest, p.gate.digest))
		}
		if err := writeTrace(o.traceDir, w.name, tp.spans); err != nil {
			return rec, err
		}
	}
	rec.Correct = len(errs) == 0
	for _, e := range errs {
		rec.Errors = append(rec.Errors, e.Error())
	}
	printTable(stdout, rec, p, tp)
	return rec, nil
}

// printTable prints a run's metrics, each by name with its unit.
func printTable(w io.Writer, rec record, p, tp *pass) {
	verdict := "correct"
	if !rec.Correct {
		verdict = "WRONG: " + strings.Join(rec.Errors, "; ")
	}
	fmt.Fprintf(w, "workload %s, seed %d: %d ops in %.2f s, %d failed, output_digest %s, %s\n",
		rec.Workload, rec.Seed, p.attempted, p.elapsed.Seconds(), p.failed, rec.OutputDigest, verdict)
	show := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "  %s\n", title)
		for _, d := range defs {
			if v, ok := rec.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "    %-28s %16.6g %s\n", d.Name, v.Value, d.Unit)
			}
		}
	}
	show("end to end (untraced pass)", endToEnd)
	if tp == nil {
		return
	}
	fmt.Fprintf(w, "  traced pass: %d ops in %.2f s, %d spans\n", tp.attempted, tp.elapsed.Seconds(), len(tp.spans))
	show("per layer", perLayer)
	fmt.Fprintln(w, "  spans (self = duration minus child spans)")
	printSpanTable(w, spanStats(tp.spans))
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a run file written by appendRecord.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return recs, nil
}
