package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
// TestBenchmarkJSONMatches keeps BENCHMARK.json equal to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the measured time of one run.
const runSeconds = 10

// endToEnd are the metrics a user of mdsrun or mdsd sees. Every workload
// reports every one, from the untraced pass.
//
// The timings' bounds are the largest the benchmark may set: on the 2-core
// machine the benchmark was sized on, runs of one seed minutes apart
// differ by up to a fifth, so a tighter bound would flag noise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "request_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "approx_ratio_max", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "rounds_total", Unit: "count", Better: "lower", Bound: 0.15},
}

// exact are the end-to-end metrics one seed always gives the same value
// of. -compare judges them seed by seed with no tolerance; their bounds
// above only cover the spread between different seeds, for comparisons of
// medians over seed sets that are not paired.
var exact = map[string]bool{"approx_ratio_max": true, "rounds_total": true}

// perLayer are the metrics of single layers, from the traced pass. Every
// workload reports every one; a layer a workload does not exercise reads
// 0 (serve.* on the batch workloads, mds.* outside paper-thm12, sweep and
// arena on the goroutine engine, a cache state no request reached).
var perLayer = []metricDef{
	{Name: "request_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.load_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.load_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "graph.loads", Unit: "count", Better: "lower"},
	{Name: "congest.rounds", Unit: "count", Better: "lower"},
	{Name: "congest.msgs", Unit: "count", Better: "lower"},
	{Name: "congest.bits", Unit: "bits", Better: "lower"},
	{Name: "congest.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "congest.node_rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "congest.round_wall_p50_us", Unit: "us", Better: "lower"},
	{Name: "congest.round_wall_p99_us", Unit: "us", Better: "lower"},
	{Name: "congest.sweep_busy_pct", Unit: "%", Better: "higher"},
	{Name: "congest.arena_peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "mds.rounds_measured", Unit: "count", Better: "lower"},
	{Name: "mds.rounds_charged", Unit: "count", Better: "lower"},
	{Name: "mds.phases", Unit: "count", Better: "lower"},
	{Name: "verify.certify_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.dual_lb_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_pct", Unit: "%", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.runs_per_request", Unit: "ratio", Better: "lower"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.graph_evictions", Unit: "count", Better: "lower"},
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "graph.eccentricity_ms", Unit: "ms", Better: "lower"},
	{Name: "congest.sweep_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "congest.delivery_ms", Unit: "ms", Better: "lower"},
	{Name: "mds.part1_ms", Unit: "ms", Better: "lower"},
	{Name: "mds.host_ms", Unit: "ms", Better: "lower"},
	{Name: "arbmds.host_ms", Unit: "ms", Better: "lower"},
	{Name: "mcds.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.coalesced_p50_ms", Unit: "ms", Better: "lower"},
}

func defsByName() map[string]metricDef {
	m := map[string]metricDef{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			m[d.Name] = d
		}
	}
	return m
}
