package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"congestds/internal/graph"
)

// TestSmokeAllWorkloads runs every workload at test size through the same
// code paths as a measurement — set-up, warm-up, window, gate, and the
// traced pass with its trace files — and checks the run is correct and
// reports every metric.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{seed: 3, seconds: 1, traceDir: filepath.Join(dir, "trace"), out: filepath.Join(dir, "runs.jsonl"), buildDir: dir, tiny: true}
			var out bytes.Buffer
			rec, err := runWorkload(w, o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 || rec.OutputDigest == "" {
				t.Fatalf("correct=%v failed=%d attempted=%d digest=%q errors=%v", rec.Correct, rec.Failed, rec.Attempted, rec.OutputDigest, rec.Errors)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := rec.Metrics[d.Name]; !ok {
					t.Errorf("metric %s missing", d.Name)
				}
				if !strings.Contains(out.String(), d.Name) {
					t.Errorf("table does not print %s", d.Name)
				}
			}
			for _, d := range endToEnd {
				if v := rec.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			for _, f := range []string{w.name + ".spans.jsonl", w.name + ".trace.json"} {
				if st, err := os.Stat(filepath.Join(o.traceDir, f)); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s: %v", f, err)
				}
			}
			if err := appendRecord(o.out, rec); err != nil {
				t.Fatal(err)
			}
			recs, err := readRecords(o.out)
			if err != nil || len(recs) != 1 || recs[0].Machine.GoVersion == "" {
				t.Fatalf("run record round trip: %v %+v", err, recs)
			}
		})
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{50, 5}, {10, 1}, {11, 2}, {99, 10}, {100, 10}, {0.1, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.2, 7.5, 2.2, 9.9, 4.4, 1.0}, [3]float64{1.0, 3.1, 7.5}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.data)
		if got := [3]float64{q1, med, q3}; fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "request_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight, []float64{101, 100, 99, 100, 102}, verdictOK},
		{"within bound", lower, tight, []float64{108, 107, 109, 108, 108}, verdictOK},
		{"past bound", lower, tight, []float64{115, 114, 116, 115, 115}, verdictRegressed},
		{"wide spread", lower, tight, []float64{80, 130, 100, 60, 140}, verdictUnresolved},
		{"wide but every run better", lower, []float64{100, 140, 120, 90, 130}, []float64{50, 60, 55, 52, 58}, verdictOK},
		{"wide but every run worse", lower, []float64{50, 60, 55, 52, 58}, []float64{100, 140, 120, 90, 130}, verdictRegressed},
		{"higher is better, dropped", higher, tight, []float64{85, 86, 84, 85, 85}, verdictRegressed},
		{"higher is better, rose", higher, tight, []float64{130, 131, 129, 130, 130}, verdictOK},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFlagsRegressionAndDigest drives -compare end to end.
func TestCompareFlagsRegressionAndDigest(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, digest string) string {
		path := filepath.Join(dir, name)
		for seed := uint64(1); seed <= 5; seed++ {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: 10 + float64(seed)/100, Unit: d.Unit}
			}
			m["request_p50_ms"] = metricValue{Value: p50 + float64(seed)/100, Unit: "ms"}
			if err := appendRecord(path, record{Workload: "serve-hot", Seed: seed, Metrics: m, OutputDigest: digest}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1, "aaaa"), write("same.jsonl", 1, "aaaa"), write("slow.jsonl", 2, "bbbb")
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", a, same}, &out, &errOut); code != exitOK {
		t.Fatalf("same runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-compare", a, slow}, &out, &errOut); code != exitFail {
		t.Fatalf("slower runs: exit %d, want %d\n%s", code, exitFail, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "output_digest CHANGED") {
		t.Errorf("compare output lacks the regression or the digest flag:\n%s", out.String())
	}
}

// TestCompareExactAndFailures checks that exact metrics are judged seed by
// seed with no tolerance, and that any rise in failed ops regresses.
func TestCompareExactAndFailures(t *testing.T) {
	rounds := metricDef{Name: "rounds_total", Better: "lower", Bound: 0.15}
	side := func(first uint64, worse map[uint64]float64, failed int) []record {
		var recs []record
		for seed := first; seed < first+5; seed++ {
			v := 100 + float64(seed) + worse[seed]
			recs = append(recs, record{Seed: seed, Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"rounds_total": {Value: v}}})
		}
		return recs
	}
	a := side(1, nil, 0)
	for _, c := range []struct {
		name string
		b    []record
		want string
	}{
		{"same", side(1, nil, 0), verdictOK},
		{"fewer rounds", side(1, map[uint64]float64{2: -3}, 0), verdictOK},
		{"one more round on one seed", side(1, map[uint64]float64{3: 1}, 0), verdictRegressed},
		{"other seeds", side(6, nil, 0), verdictUnresolved},
	} {
		if got := exactVerdict(rounds, a, c.b); got != c.want {
			t.Errorf("%s: exact verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if _, _, v := failVerdict(a, side(1, nil, 0)); v != verdictOK {
		t.Errorf("no failures on either side: %s", v)
	}
	if fa, fb, v := failVerdict(a, side(1, nil, 1)); v != verdictRegressed || fa != 0 || fb != 0.01 {
		t.Errorf("failures on B: %g -> %g %s, want 0 -> 0.01 regressed", fa, fb, v)
	}
}

// TestFailedOpsExitNonZero swaps in a workload whose ops return an error
// once each graph has been solved: the answers are correct, but the run
// must exit non-zero, count the failures, and keep their latencies out of
// request_p50_ms.
func TestFailedOpsExitNonZero(t *testing.T) {
	bad := *paperThm12
	solve := bad.solve
	bad.solve = func(e *env, g *graph.Graph, parent, req int64) (batchOut, error) {
		if req > 3 {
			return batchOut{}, fmt.Errorf("injected failure")
		}
		return solve(e, g, parent, req)
	}
	saved := workloads
	workloads = []workload{{name: "paper-thm12", setup: setupBatch(&bad)}}
	defer func() { workloads = saved }()

	dir := t.TempDir()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "paper-thm12", "-tiny", "-seconds", "1", "-out", filepath.Join(dir, "runs.jsonl")}, &out, &errOut)
	if code != exitFail {
		t.Fatalf("exit %d, want %d\n%s", code, exitFail, errOut.String())
	}
	recs, err := readRecords(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if !r.Correct {
		t.Fatalf("the answers were correct, the record says otherwise: %v", r.Errors)
	}
	if r.Failed == 0 || len(r.Samples.RequestMs) != r.Attempted-r.Failed {
		t.Errorf("attempted %d, failed %d, %d latencies kept; want failed > 0 and only successful ops' latencies",
			r.Attempted, r.Failed, len(r.Samples.RequestMs))
	}
}

// TestInputsDeterministic checks that one seed always gives byte-identical
// graph files and request schedules, and another seed different ones.
func TestInputsDeterministic(t *testing.T) {
	inputs := func(w workload, seed uint64) []byte {
		e := &env{seed: seed, dir: t.TempDir(), tiny: true}
		inst, err := w.setup(e)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		var all []byte
		files, _ := filepath.Glob(filepath.Join(e.dir, "*.csrg"))
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(append(all, filepath.Base(f)...), b...)
		}
		if s, ok := inst.(*serveInstance); ok {
			for i := 0; i < 2000; i++ {
				k, solve := s.sched.entry(i)
				all = append(all, fmt.Sprint(k, solve)...)
			}
		}
		return all
	}
	for _, w := range workloads {
		one, again, other := inputs(w, 11), inputs(w, 11), inputs(w, 12)
		if !bytes.Equal(one, again) {
			t.Errorf("%s: seed 11 gave different inputs on two set-ups", w.name)
		}
		if bytes.Equal(one, other) {
			t.Errorf("%s: seeds 11 and 12 gave identical inputs", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	s := newSchedule(5, 96, 0, 5)
	repeats, solves := 0, 0
	prev := -1
	const n = 20000
	for i := 0; i < n; i++ {
		k, solve := s.entry(i)
		if k < 0 || k >= 96 {
			t.Fatalf("entry %d: key %d out of range", i, k)
		}
		if k == prev {
			repeats++
		}
		if solve {
			solves++
		}
		prev = k
	}
	// Every fifth entry repeats; a fresh entry matches the previous key
	// only across a cycle boundary, by chance.
	if r := float64(repeats) / n; r < 0.2 || r > 0.21 {
		t.Errorf("repeat share %.3f, want about 0.2", r)
	}
	if f := float64(solves) / n; f < 0.47 || f > 0.53 {
		t.Errorf("/solve share %.3f, want about 0.5", f)
	}
	z := newSchedule(5, 12, 1.1, 0)
	counts := make([]int, 12)
	for i := 0; i < n; i++ {
		k, _ := z.entry(i)
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[11] {
		t.Errorf("Zipf counts not decreasing with rank: %v", counts)
	}
}

// TestCorruptedAnswerFailsRun swaps in a workload whose solve drops a
// member of the set it returns: the gate must catch it and the run must
// exit non-zero with correct=false on its result line.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	bad := *paperThm12
	solve := bad.solve
	bad.solve = func(e *env, g *graph.Graph, parent, req int64) (batchOut, error) {
		out, err := solve(e, g, parent, req)
		out.set = out.set[1:]
		return out, err
	}
	saved := workloads
	workloads = []workload{{name: "paper-thm12", setup: setupBatch(&bad)}}
	defer func() { workloads = saved }()

	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "paper-thm12", "-tiny", "-seconds", "1", "-out", filepath.Join(t.TempDir(), "runs.jsonl")}, &out, &errOut)
	if code != exitFail {
		t.Fatalf("exit %d, want %d\n%s", code, exitFail, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("result line %q: err=%v correct=%v", lines[len(lines)-1], err, res.Correct)
	}
}

// TestServeGateRejectsTamperedBodies feeds the serve checks a body that
// differs from the first one served and a /solve reply whose set was
// altered.
func TestServeGateRejectsTamperedBodies(t *testing.T) {
	e := &env{seed: 2, dir: t.TempDir(), tiny: true}
	inst, err := setupServe(serveHot)(e)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveInstance)
	defer s.close()
	body := s.first[2*0+epSolve]
	if err := s.remember(0, epSolve, append(append([]byte(nil), body...), ' '), stateHit, time.Millisecond); err == nil {
		t.Error("a body differing from the first one served was accepted")
	}
	if _, err := s.gate(); err != nil {
		t.Fatalf("untampered gate: %v", err)
	}
	var v solveBody
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	g, closer, err := graph.Load(s.paths[s.keys[0].graph])
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	gg := &gateGraph{g: g, fp: v.Graph, delta: g.MaxDegree(), diam: 2*g.Eccentricity(0) + 2}
	if err := s.check(s.keys[0], gg, &v); err != nil {
		t.Fatalf("untampered body: %v", err)
	}
	v.Set = v.Set[1:]
	v.SetSize--
	if err := s.check(s.keys[0], gg, &v); err == nil {
		t.Error("a /solve reply with a member removed passed the check")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metric tables here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command %v, want %v", bj.Command, want)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || bj.RunSeconds != runSeconds {
		t.Errorf("paths %v run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, here %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", bj.PerLayer, perLayer)
	}
}
