package main

// metricSpec declares one metric: BENCHMARK.json is generated from (and
// tested against) these tables.
type metricSpec struct {
	Name, Unit, Better string
	// Bound is the share of the base by which the metric may worsen before
	// -selfcheck and -compare call it different: the issue's ruler.
	Bound float64
	// Gate is the bound BENCHMARK.json declares to the driver, which refuses a
	// benchmark whose spread over ten seeds exceeds it: Bound, widened to what
	// this shared two-core host was measured to resolve (README, "Bounds").
	Gate float64
}

// runSeconds is how long one timed run measures. The issue asked for 24 s;
// the driver's cap (114 runs in 3420 s, set-up and builds included) leaves
// this much with a sixth to spare.
const runSeconds = 20

// tracedSeconds caps the traced run, which needs a few cycles, not a sample
// of the host.
const tracedSeconds = 5

// setupSamples is how many fresh processes set a workload up for one
// untraced run; setup_s is their median.
const setupSamples = 5

// endToEnd are the gated metrics every workload reports.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "lat_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gate: 0.25},
}

// suiteOnly are end-to-end metrics the full suite reports but BENCHMARK.json
// cannot gate, because a gated metric must be a non-zero number on every
// workload: alloc_kb_per_op is unobservable where the engine runs in a child
// (serve_mixed), lat_ms_p95 exists only where a run yields at least ten
// samples beyond it (serve_mixed's primary class), and failed_ops_ratio is 0
// on a healthy run (the driver reads attempted/failed instead).
var suiteOnly = []metricSpec{
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "lat_ms_p95", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower", Bound: 0},
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

// perLayer are the ungated single-layer metrics of a traced run.
var perLayer = []metricSpec{
	layer("parser.parse_us", "us", "lower"),
	layer("planner.plan_us", "us", "lower"),
	layer("optimizer.optimize_us", "us", "lower"),
	layer("engine.run_plan_ms", "ms", "lower"),
	layer("engine.unattributed_ratio", "ratio", "lower"),
	layer("engine.gc_pause_ms_per_op", "ms", "lower"),
	layer("engine.alloc_kb_per_op", "KB", "lower"),
	layer("engine.mode_ms_geomean.gbu", "ms", "lower"),
	layer("engine.mode_ms_geomean.bu", "ms", "lower"),
	layer("engine.mode_ms_geomean.ftp", "ms", "lower"),
	layer("engine.mode_ms_geomean.native", "ms", "lower"),
	layer("engine.mode_ms_geomean.plugin-naive", "ms", "lower"),
	layer("engine.mode_ms_geomean.plugin-merged", "ms", "lower"),
	layer("exec.self_ms", "ms", "lower"),
	layer("exec.parallel_speedup", "ratio", "higher"),
	layer("exec.rows_scanned_per_op", "count", "lower"),
	layer("exec.tuples_materialized_per_op", "count", "lower"),
	layer("exec.cells_materialized_per_op", "count", "lower"),
	layer("exec.prefer_evals_per_op", "count", "lower"),
	layer("exec.score_evals_per_op", "count", "lower"),
	layer("exec.score_cache_hit_ratio", "ratio", "higher"),
	layer("exec.batches_per_op", "count", "lower"),
	layer("exec.col_batches_per_op", "count", "higher"),
	layer("exec.rows_late_materialized_ratio", "ratio", "lower"),
	layer("exec.join_probe_batches_per_op", "count", "lower"),
	layer("exec.index_probes_per_op", "count", "higher"),
	layer("exec.ladder.scan_filter_ms", "ms", "lower"),
	layer("exec.ladder.prefer_ms", "ms", "lower"),
	layer("exec.ladder.topk_ms", "ms", "lower"),
	layer("exec.ladder.join_ms", "ms", "lower"),
	layer("exec.ladder.materialize_ms", "ms", "lower"),
	layer("colstore.build_ms", "ms", "lower"),
	layer("colstore.segments_scanned_per_op", "count", "lower"),
	layer("colstore.segment_skip_ratio", "ratio", "higher"),
	layer("catalog.load_rows_per_s", "1/s", "higher"),
	layer("catalog.stats_rebuild_ms", "ms", "lower"),
	layer("snapshot.save_ms", "ms", "lower"),
	layer("snapshot.load_ms", "ms", "lower"),
	layer("snapshot.bytes", "B", "lower"),
	layer("wire.encode_row_ns", "ns", "lower"),
	layer("wire.decode_row_ns", "ns", "lower"),
	layer("wire.bytes_per_row", "B", "lower"),
	layer("wire.roundtrip_overhead_ms", "ms", "lower"),
	layer("server.start_ms", "ms", "lower"),
	layer("server.connect_ms", "ms", "lower"),
	layer("server.prepare_ms", "ms", "lower"),
	layer("server.rejected_ops", "count", "lower"),
	layer("server.class_ms_p50.topk_prepared", "ms", "lower"),
	layer("server.class_ms_p95.topk_prepared", "ms", "lower"),
	layer("plugin.native_calls_per_op", "count", "lower"),
	layer("plugin.slowdown_vs_gbu", "ratio", "lower"),
	layer("prel.topk_us", "us", "lower"),
	layer("bench.trace_overhead_ratio", "ratio", "lower"),
	layer("bench.samples", "count", "higher"),
}

// benchmarkSpec renders BENCHMARK.json, the declaration the driver reads
// (-spec prints it; a test keeps the committed file equal to it).
func benchmarkSpec() map[string]any {
	var workloads, gated, layers []map[string]any
	for _, name := range workloadNames {
		workloads = append(workloads, map[string]any{"name": name, "why": workloadWhy[name]})
	}
	for _, m := range endToEnd {
		gated = append(gated, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Gate})
	}
	for _, m := range perLayer {
		layers = append(layers, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  gated,
		"per_layer":   layers,
	}
}
