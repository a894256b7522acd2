// Package experiments implements the reproduction harness. The paper has no
// empirical evaluation (no tables, no figures — it is a theory paper), so
// each experiment validates one of its stated claims: approximation
// guarantees, fractionality schedules, uncovered-probability bounds, round
// and bandwidth complexity, and the connected dominating set construction.
// EXPERIMENTS.md records claimed-vs-measured for each; cmd/mdsbench prints
// the tables; bench_test.go wires each experiment into `go test -bench`.
package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"congestds/internal/baseline"
	"congestds/internal/congest"
	"congestds/internal/family"
	"congestds/internal/fractional"
	"congestds/internal/graph"
	"congestds/internal/kwise"
	"congestds/internal/mds"
	"congestds/internal/rounding"
	"congestds/internal/setcover"
	"congestds/internal/verify"
)

// simEngine is the congest execution engine every experiment runs on: the
// default, stepped, except in TestExperimentsEngineInvariant, which sets it
// to the goroutine reference engine to show that the engine changes
// wall-clock speed only, never results or round counts.
var simEngine congest.Engine

// Observer, when non-nil, is attached to every experiment-built run (see
// congest.Observer). It is a package-level knob set by cmd/mdsbench before
// the suite runs; telemetry never changes results.
var Observer congest.Observer

// simRun is the run context of every run an experiment builds itself: its
// own networks, and the mds.Solve calls of the tables that read pipeline
// internals no family returns (E4, E5).
func simRun() congest.Run { return congest.Run{Sim: simEngine, Observer: Observer} }

// solve runs the registered family name on g under the selected engine and
// observer: the one solve-and-certify path of every claim row.
func solve(name string, g *graph.Graph, p family.Params) (*family.Result, error) {
	f, err := family.Get(name)
	if err != nil {
		return nil, err
	}
	p.Sim, p.Observer = simEngine, Observer
	return f.Solve(g, p)
}

// sizeOf renders the set size of the comparison family name on g, or "-"
// when it fails: comparison columns give context, they are not claims.
func sizeOf(name string, g *graph.Graph, eps float64) string {
	res, err := solve(name, g, family.Params{Eps: eps})
	if err != nil {
		return "-"
	}
	return fmt.Sprint(len(res.Set))
}

// Table is one experiment's output.
type Table struct {
	ID     string
	Claim  string
	Header []string
	Rows   [][]string
	// Violations counts rows that violate the claim (0 = reproduced).
	Violations int
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s\n", t.ID, t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintf(&b, "violations: %d\n", t.Violations)
	return b.String()
}

// benchFamilies returns the graph suite at the given scale.
func benchFamilies(quick bool) []struct {
	Name string
	G    *graph.Graph
} {
	n := 256
	if quick {
		n = 64
	}
	return []struct {
		Name string
		G    *graph.Graph
	}{
		{"gnp", graph.GNPConnected(n, 4.0/float64(n), 1)},
		{"grid", graph.Grid(isqrt(n), isqrt(n))},
		{"ba", graph.BarabasiAlbert(n, 3, 2)},
		{"disk", graph.UnitDiskConnected(n, 1.8/math.Sqrt(float64(n)), 3)},
		{"caterpillar", graph.Caterpillar(n/5, 4)},
		{"cycle", graph.Cycle(n)},
	}
}

func isqrt(n int) int { return int(math.Round(math.Sqrt(float64(n)))) }

// optEstimate returns (lower bound on OPT, exact flag): exact for small
// graphs, dual-packing LB otherwise.
func optEstimate(g *graph.Graph) (float64, bool) {
	if g.N() <= 24 {
		return float64(len(baseline.Exact(g))), true
	}
	return verify.DualPackingLB(g), false
}

// E1 validates Theorem 1.1: the decomposition-engine MDS is deterministic,
// dominating, and within (1+ε)(1+ln(Δ+1)) of the optimum.
func E1(quick bool) *Table {
	return approxExperiment("E1", "Thm 1.1: |DS| ≤ (1+ε)(1+ln(Δ+1))·OPT via network decomposition",
		"thm1.1", quick)
}

// E2 validates Theorem 1.2 (coloring engine).
func E2(quick bool) *Table {
	return approxExperiment("E2", "Thm 1.2: |DS| ≤ (1+ε)(1+ln(Δ+1))·OPT via distance-2 colorings",
		"thm1.2", quick)
}

func approxExperiment(id, claim, algo string, quick bool) *Table {
	t := &Table{
		ID:     id,
		Claim:  claim,
		Header: []string{"family", "n", "Δ", "|DS|", "greedy", "OPT-lb", "ratio≤", "bound", "rounds", "ok"},
	}
	eps := 0.5
	for _, fam := range benchFamilies(quick) {
		g := fam.G
		res, err := solve(algo, g, family.Params{Eps: eps})
		if err != nil {
			t.errorRow(fam.Name, err)
			continue
		}
		lb, exact := optEstimate(g)
		ratio := float64(len(res.Set)) / lb
		bound := mds.Bound(eps, g.MaxDegree())
		// The bound check is decisive only against exact OPT; against the
		// dual LB it is conservative (ratio is an upper bound on truth).
		ok := res.Cert.Passed() && (!exact || ratio <= bound+1e-9)
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fam.Name,
			fmt.Sprint(g.N()), fmt.Sprint(g.MaxDegree()),
			fmt.Sprint(len(res.Set)), sizeOf("greedy", g, eps),
			fmt.Sprintf("%.1f", lb),
			fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.3f", bound),
			fmt.Sprint(res.Rounds),
			fmt.Sprint(ok),
		})
	}
	return t
}

// E3 validates Lemma 2.1 on the fractional dominating set Part II starts
// from (fractional.Initial, trim included): it is feasible and
// ε/(2Δ̃)-fractional.
func E3(quick bool) *Table {
	t := &Table{
		ID:     "E3",
		Claim:  "Lemma 2.1: feasible fractional DS with fractionality ≥ ε/(2Δ̃)",
		Header: []string{"family", "n", "size", "OPT-lb", "fract", "floor", "feasible", "ok"},
	}
	eps := 0.5
	for _, fam := range benchFamilies(quick) {
		g := fam.G
		net := congest.NewNetwork(g, simRun().Config(0))
		fds, err := fractional.Initial(net, nil, eps)
		if err != nil {
			t.Rows = append(t.Rows, []string{fam.Name, "-", "-", "-", "-", "-", "-", "ERR"})
			t.Violations++
			continue
		}
		feasible := fds.Check(g) == nil
		floor := fractional.FloorValue(fds.Ctx, eps, g.MaxDegree())
		fr := fds.Fractionality()
		ok := feasible && fr >= floor
		if !ok {
			t.Violations++
		}
		lb, _ := optEstimate(g)
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(g.N()),
			fmt.Sprintf("%.2f", fds.SizeFloat()), fmt.Sprintf("%.1f", lb),
			fmt.Sprintf("%.2e", fds.Ctx.Float(fr)), fmt.Sprintf("%.2e", fds.Ctx.Float(floor)),
			fmt.Sprint(feasible), fmt.Sprint(ok),
		})
	}
	return t
}

// E4 validates Lemmas 3.9/3.14: every factor-two phase roughly doubles the
// fractionality at (1+ε₂)-ish size inflation.
func E4(quick bool) *Table {
	t := &Table{
		ID:     "E4",
		Claim:  "Lemma 3.14: factor-two phase doubles fractionality, size ×(1+ε₂)+n/Δ̃⁴",
		Header: []string{"family", "phase", "1/r in", "frac out/in", "size out/in", "ok"},
	}
	for _, fam := range benchFamilies(quick)[:3] {
		res, err := mds.Solve(fam.G, mds.Params{Eps: 0.5, Engine: mds.EngineColoring, Run: simRun()})
		if err != nil {
			t.Violations++
			continue
		}
		for i, ph := range res.Phases {
			fracGain := ph.FracOut / ph.FracIn
			sizeInfl := ph.SizeOut / math.Max(ph.SizeIn, 1e-9)
			ok := fracGain >= 1.5 && sizeInfl <= 1.6
			if !ok {
				t.Violations++
			}
			t.Rows = append(t.Rows, []string{
				fam.Name, fmt.Sprint(i), fmt.Sprintf("1/%d", ph.R),
				fmt.Sprintf("%.2f", fracGain), fmt.Sprintf("%.4f", sizeInfl), fmt.Sprint(ok),
			})
		}
	}
	return t
}

// E5 validates Lemmas 3.8/3.13: the one-shot step loses at most a ln(Δ̃)
// factor plus the rescue term (checked as final/initial fractional size).
func E5(quick bool) *Table {
	t := &Table{
		ID:     "E5",
		Claim:  "Lemma 3.13: one-shot size ≤ lnΔ̃·A + n/Δ̃ (checked vs fractional input A)",
		Header: []string{"family", "n", "A(frac)", "|DS|", "lnΔ̃·A+n/Δ̃", "ok"},
	}
	for _, fam := range benchFamilies(quick) {
		g := fam.G
		res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: mds.EngineColoring, Run: simRun()})
		if err != nil {
			t.Violations++
			continue
		}
		// Use the size after Part II as A (input to one-shot).
		a := res.InitialSize
		if len(res.Phases) > 0 {
			a = res.Phases[len(res.Phases)-1].SizeOut
		}
		deltaTilde := float64(g.MaxDegree() + 1)
		bound := math.Log(deltaTilde+1)*a + float64(g.N())/deltaTilde + 1
		ok := float64(len(res.Set)) <= bound+1e-9
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(g.N()), fmt.Sprintf("%.2f", a),
			fmt.Sprint(len(res.Set)), fmt.Sprintf("%.2f", bound), fmt.Sprint(ok),
		})
	}
	return t
}

// E6 validates Theorem 1.4: valid CDS with |CDS| ≤ 3|DS| and the O(lnΔ)
// guarantee against OPT estimates.
func E6(quick bool) *Table {
	t := &Table{
		ID:     "E6",
		Claim:  "Thm 1.4: connected dominating set, |CDS| ≤ 3|DS| ≤ 3(1+ε)(1+lnΔ̃)·OPT",
		Header: []string{"family", "n", "|DS|", "|CDS|", "3|DS|", "valid", "rounds", "ok"},
	}
	for _, fam := range benchFamilies(quick) {
		g := fam.G
		if !g.IsConnected() {
			continue
		}
		res, err := solve("cds", g, family.Params{Eps: 0.5})
		if err != nil {
			t.Violations++
			continue
		}
		valid := res.Cert.Passed()
		ok := valid && len(res.Set) <= 3*len(res.DS)
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(g.N()), fmt.Sprint(len(res.DS)), fmt.Sprint(len(res.Set)),
			fmt.Sprint(3 * len(res.DS)), fmt.Sprint(valid),
			fmt.Sprint(res.Rounds), fmt.Sprint(ok),
		})
	}
	return t
}

// E7 measures round/bandwidth scaling with n and checks the CONGEST
// message-size invariant (messages ≤ budget = O(log n)).
func E7(quick bool) *Table {
	t := &Table{
		ID:     "E7",
		Claim:  "Section 2: messages fit O(log n) bits; rounds grow polynomially in measured components",
		Header: []string{"n", "Δ", "rounds", "charged", "maxMsgBits", "budget", "ok"},
	}
	sizes := []int{32, 64, 128, 256}
	if quick {
		sizes = []int{32, 64, 128}
	}
	for _, n := range sizes {
		g := graph.GNPConnected(n, 4.0/float64(n), 9)
		res, err := solve("thm1.2", g, family.Params{Eps: 0.5})
		if err != nil {
			t.Violations++
			continue
		}
		m := res.Ledger.Metrics()
		ok := m.MaxMsgBits <= m.BandwidthBits && res.Cert.Passed()
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(g.MaxDegree()),
			fmt.Sprint(m.Rounds), fmt.Sprint(m.ChargedRounds),
			fmt.Sprint(m.MaxMsgBits), fmt.Sprint(m.BandwidthBits), fmt.Sprint(ok),
		})
	}
	return t
}

// E8 compares the derandomized algorithms with the randomized rounding
// baseline they derandomize: determinism must not cost more than the
// random baseline's mean (the conditional expectation argument).
func E8(quick bool) *Table {
	t := &Table{
		ID:     "E8",
		Claim:  "Derandomized one-shot ≤ mean randomized one-shot (method of conditional expectations)",
		Header: []string{"family", "derand |DS|", "random mean", "random min", "trials", "ok"},
	}
	trials := 50
	if quick {
		trials = 20
	}
	r := rand.New(rand.NewPCG(17, 19))
	for _, fam := range benchFamilies(quick)[:4] {
		g := fam.G
		res, err := solve("thm1.2", g, family.Params{Eps: 0.5})
		if err != nil {
			t.Violations++
			continue
		}
		// Randomized baseline from the same fractional start.
		net := congest.NewNetwork(g, simRun().Config(0))
		fds, err := fractional.Initial(net, nil, 0.5/16)
		if err != nil {
			t.Violations++
			continue
		}
		sum, min := 0, g.N()+1
		for i := 0; i < trials; i++ {
			set := baseline.RandomizedOneShot(g, fds, r)
			sum += len(set)
			if len(set) < min {
				min = len(set)
			}
		}
		mean := float64(sum) / float64(trials)
		// Pipelines differ slightly (random baseline skips part II), so
		// compare with 25% slack.
		ok := float64(len(res.Set)) <= mean*1.25+2
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(len(res.Set)), fmt.Sprintf("%.1f", mean),
			fmt.Sprint(min), fmt.Sprint(trials), fmt.Sprint(ok),
		})
	}
	return t
}

// E9 validates Lemmas 3.6/3.7 empirically: under k-wise coins the one-shot
// uncovered probability is ≤ 1/Δ̃.
func E9(quick bool) *Table {
	t := &Table{
		ID:     "E9",
		Claim:  "Lemma 3.6: Pr(E_v) ≤ Δ̃⁻¹ under k-wise independent coins, k ≥ F",
		Header: []string{"Δ̃", "F", "k", "trials", "Pr(E_v) est", "bound", "ok"},
	}
	trials := 2000
	if quick {
		trials = 600
	}
	r := rand.New(rand.NewPCG(23, 29))
	for _, nn := range []int{8, 12, 16} {
		g := graph.Complete(nn)
		ctx := fractional.ScaleFor(nn)
		fds := fractional.NewFDS(ctx, nn)
		for v := range fds.X {
			fds.X[v] = ctx.FromRatio(1, uint64(nn), true)
		}
		inst := rounding.OneShotOnGraph(g, fds, ctx.FromFloat(math.Log(float64(nn))))
		gen, err := kwise.New(nn, nn, ctx.Scale())
		if err != nil {
			t.Violations++
			continue
		}
		unc := 0
		for i := 0; i < trials; i++ {
			seed := gen.RandomSeed(r)
			out := inst.Execute(func(j int) bool { return gen.Coin(seed, j, uint64(inst.P[j])) })
			unc += out.Rescued
		}
		est := float64(unc) / float64(trials*nn)
		bound := 1.0 / float64(nn)
		ok := est <= bound*1.5+0.02
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nn), fmt.Sprint(nn), fmt.Sprint(nn), fmt.Sprint(trials),
			fmt.Sprintf("%.4f", est), fmt.Sprintf("%.4f", bound), fmt.Sprint(ok),
		})
	}
	return t
}

// E10 validates Lemma 3.3: the extractor's coins are exactly k-wise uniform
// (exhaustively, on a small field).
func E10(bool) *Table {
	t := &Table{
		ID:     "E10",
		Claim:  "Lemma 3.3: k-wise independent coins from O(k·log²N)-bit seeds",
		Header: []string{"k", "N", "bits", "seed bits", "joint outcomes", "uniform", "ok"},
	}
	gen, err := kwise.New(2, 8, 3)
	if err != nil {
		t.Violations++
		return t
	}
	counts := make(map[[2]uint64]int)
	seed := make([]uint64, gen.SeedWords())
	order := uint64(1) << gen.FieldM()
	var rec func(i int)
	rec = func(i int) {
		if i == len(seed) {
			counts[[2]uint64{gen.Value(seed, 0), gen.Value(seed, 5)}]++
			return
		}
		for v := uint64(0); v < order; v++ {
			seed[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	uniform := true
	first := -1
	for _, c := range counts {
		if first < 0 {
			first = c
		}
		if c != first {
			uniform = false
		}
	}
	ok := uniform && len(counts) == 64
	if !ok {
		t.Violations++
	}
	t.Rows = append(t.Rows, []string{
		"2", "8", "3", fmt.Sprint(gen.SeedBits()), fmt.Sprint(len(counts)),
		fmt.Sprint(uniform), fmt.Sprint(ok),
	})
	return t
}

// E11 validates the Section 5 set cover generalization.
func E11(quick bool) *Table {
	t := &Table{
		ID:     "E11",
		Claim:  "Section 5: set cover via the same machinery, ratio near greedy",
		Header: []string{"elements", "sets", "smax", "cover", "greedy", "ok"},
	}
	r := rand.New(rand.NewPCG(31, 37))
	sizes := []int{100, 200}
	if quick {
		sizes = []int{60}
	}
	for _, ne := range sizes {
		in := &setcover.Instance{NumElements: ne}
		for s := 0; s < ne/2; s++ {
			size := 2 + r.IntN(10)
			seen := map[int]bool{}
			var set []int
			for len(set) < size {
				e := r.IntN(ne)
				if !seen[e] {
					seen[e] = true
					set = append(set, e)
				}
			}
			in.Sets = append(in.Sets, set)
		}
		covered := make([]bool, ne)
		for _, s := range in.Sets {
			for _, e := range s {
				covered[e] = true
			}
		}
		for e, okc := range covered {
			if !okc {
				in.Sets = append(in.Sets, []int{e})
			}
		}
		res, err := setcover.Solve(in, 0.5)
		if err != nil {
			t.Violations++
			continue
		}
		gr := setcover.Greedy(in)
		ok := len(res.Cover) <= 3*len(gr)+3
		if !ok {
			t.Violations++
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(ne), fmt.Sprint(len(in.Sets)), fmt.Sprint(in.MaxSetSize()),
			fmt.Sprint(len(res.Cover)), fmt.Sprint(len(gr)), fmt.Sprint(ok),
		})
	}
	return t
}

// E12 is the cross-algorithm ablation: both engines, greedy, and the
// randomized baseline on the same instances.
func E12(quick bool) *Table {
	t := &Table{
		ID:     "E12",
		Claim:  "Ablation: Thm1.1 vs Thm1.2 vs greedy vs randomized, same instances",
		Header: []string{"family", "n", "thm1.1", "thm1.2", "greedy", "rand(mean/5)", "OPT-lb"},
	}
	r := rand.New(rand.NewPCG(41, 43))
	for _, fam := range benchFamilies(quick)[:4] {
		g := fam.G
		r1, err1 := solve("thm1.1", g, family.Params{Eps: 0.5})
		r2, err2 := solve("thm1.2", g, family.Params{Eps: 0.5})
		if err1 != nil || err2 != nil {
			t.Violations++
			continue
		}
		net := congest.NewNetwork(g, simRun().Config(0))
		fds, err := fractional.Initial(net, nil, 0.5/16)
		if err != nil {
			t.Violations++
			continue
		}
		sum := 0
		for i := 0; i < 5; i++ {
			sum += len(baseline.RandomizedOneShot(g, fds, r))
		}
		lb, _ := optEstimate(g)
		t.Rows = append(t.Rows, []string{
			fam.Name, fmt.Sprint(g.N()),
			fmt.Sprint(len(r1.Set)), fmt.Sprint(len(r2.Set)), sizeOf("greedy", g, 0.5),
			fmt.Sprintf("%.1f", float64(sum)/5), fmt.Sprintf("%.1f", lb),
		})
	}
	return t
}

// Experiment pairs a table's ID with its generator, so callers can select
// an experiment by name without computing the others (cmd/mdsbench -only).
type Experiment struct {
	ID  string
	Run func(quick bool) *Table
}

// Suite lists every experiment in run order.
func Suite() []Experiment {
	return []Experiment{
		{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E4", E4}, {"E5", E5},
		{"E6", E6}, {"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10},
		{"E11", E11}, {"E12", E12}, {"E-arb", EArb}, {"E-mcds", EMcds},
	}
}

// All runs every experiment.
func All(quick bool) []*Table {
	tables := make([]*Table, 0, len(Suite()))
	for _, e := range Suite() {
		tables = append(tables, e.Run(quick))
	}
	return tables
}
