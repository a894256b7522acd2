// Benchmark harness: one entry per experiment (E1..E12, see
// internal/experiments and EXPERIMENTS.md). The paper is a theory paper without tables or figures;
// each benchmark regenerates the measurements that validate one of its
// claims and reports headline numbers as custom metrics. Violations of a
// claim fail the benchmark.
package main

import (
	"strconv"
	"testing"

	"congestds/internal/experiments"
	"congestds/internal/family"
	"congestds/internal/graph"
	"congestds/internal/mds"
)

func runExperiment(b *testing.B, fn func(quick bool) *experiments.Table) {
	b.ReportAllocs()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = fn(true)
	}
	if t.Violations > 0 {
		b.Fatalf("experiment %s: %d claim violations:\n%s", t.ID, t.Violations, t)
	}
	b.ReportMetric(float64(len(t.Rows)), "rows")
}

func BenchmarkE1_TheoremOneOne(b *testing.B)       { runExperiment(b, experiments.E1) }
func BenchmarkE2_TheoremOneTwo(b *testing.B)       { runExperiment(b, experiments.E2) }
func BenchmarkE3_InitialFractional(b *testing.B)   { runExperiment(b, experiments.E3) }
func BenchmarkE4_FactorTwo(b *testing.B)           { runExperiment(b, experiments.E4) }
func BenchmarkE5_OneShot(b *testing.B)             { runExperiment(b, experiments.E5) }
func BenchmarkE6_CDS(b *testing.B)                 { runExperiment(b, experiments.E6) }
func BenchmarkE7_Scaling(b *testing.B)             { runExperiment(b, experiments.E7) }
func BenchmarkE8_DerandVsRandom(b *testing.B)      { runExperiment(b, experiments.E8) }
func BenchmarkE9_UncoveredProb(b *testing.B)       { runExperiment(b, experiments.E9) }
func BenchmarkE10_KWise(b *testing.B)              { runExperiment(b, experiments.E10) }
func BenchmarkE11_SetCover(b *testing.B)           { runExperiment(b, experiments.E11) }
func BenchmarkE12_Ablation(b *testing.B)           { runExperiment(b, experiments.E12) }
func BenchmarkEArb_BoundedArboricity(b *testing.B) { runExperiment(b, experiments.EArb) }
func BenchmarkEMcds_ConnectedDS(b *testing.B)      { runExperiment(b, experiments.EMcds) }

// BenchmarkFamilyScale100k is the wall-clock companion to the million-node
// arbmds and mcds runs (mdsrun -n 1000000 and the memsmoke CI job) at a
// bench-friendly size, through the same family.Solve path mdsrun takes. A
// failed certificate fails the benchmark.
func BenchmarkFamilyScale100k(b *testing.B) {
	for _, c := range []struct {
		algo string
		seed uint64
	}{
		{"arbmds", 7},
		{"mcds", 1},
	} {
		b.Run(c.algo, func(b *testing.B) {
			f, err := family.Get(c.algo)
			if err != nil {
				b.Fatal(err)
			}
			g := graph.UnionForests(100_000, graph.DefaultArbAlpha, c.seed)
			var p family.Params
			if f.NeedsDiam {
				p.DiamBound = 2*g.Eccentricity(0) + 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *family.Result
			for i := 0; i < b.N; i++ {
				if res, err = f.Solve(g, p); err != nil {
					b.Fatal(err)
				}
			}
			if !res.Cert.Passed() {
				b.Fatalf("certificate failed: %v", res.Cert)
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkSolveScaling times the Theorem 1.2 pipeline across sizes (the
// wall-clock companion to E7's round measurements).
func BenchmarkSolveScaling(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		g := graph.GNPConnected(n, 4.0/float64(n), 5)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: mds.EngineColoring})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Ledger.Metrics().TotalRounds()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkEngines compares both derandomization engines head-to-head on
// the same graph (an engine ablation).
func BenchmarkEngines(b *testing.B) {
	g := graph.GNPConnected(96, 0.05, 7)
	for _, eng := range []mds.Engine{mds.EngineDecomposition, mds.EngineColoring, mds.EngineColoringLocal} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			var size, rounds int
			for i := 0; i < b.N; i++ {
				res, err := mds.Solve(g, mds.Params{Eps: 0.5, Engine: eng})
				if err != nil {
					b.Fatal(err)
				}
				size = len(res.Set)
				rounds = res.Ledger.Metrics().TotalRounds()
			}
			b.ReportMetric(float64(size), "setsize")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}
