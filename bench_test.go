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

// BenchmarkEArbScale100k is the wall-clock companion to the E-arb scale
// row at a bench-friendly size (the 10⁶-node version lives behind
// cmd/mdsbench -earb-scale and the memsmoke CI job).
func BenchmarkEArbScale100k(b *testing.B) {
	b.ReportAllocs()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.EArbScale(100_000)
	}
	if t.Violations > 0 {
		b.Fatalf("%d claim violations:\n%s", t.Violations, t)
	}
}

// BenchmarkEMcdsScale100k is the wall-clock companion to the E-mcds scale
// row at a bench-friendly size (the 10⁶-node version lives behind
// cmd/mdsbench -emcds-scale and the memsmoke CI job).
func BenchmarkEMcdsScale100k(b *testing.B) {
	b.ReportAllocs()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.EMcdsScale(100_000)
	}
	if t.Violations > 0 {
		b.Fatalf("%d claim violations:\n%s", t.Violations, t)
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
