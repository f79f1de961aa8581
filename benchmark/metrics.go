package main

// The metric catalog: every name the benchmark prints, with its unit. The
// smoke test checks that this catalog and ../BENCHMARK.json declare the
// same names, units and bounds, so neither can drift alone.

// metricKind says how a metric's per-job readings are reduced and whether
// it may back a claim: a count is compared across the jobs of one run and
// marked exact (all readings equal) or noisy; a timing is a median.
type metricKind uint8

const (
	kindTiming metricKind = iota
	kindCount
)

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Zero on per-layer metrics, which are not gated.
	Bound float64
	Kind  metricKind
}

// endToEnd are the metrics a user of the system sees, reported per
// workload from the untraced timed jobs.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_s_p50", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_s_p90", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "step_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_job", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_job", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "mallocs_k_per_job", Unit: "k", Better: "lower", Bound: 0.03},
}

func count(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Kind: kindCount}
}

func timing(name, unit string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Kind: kindTiming}
}

// perLayer are the metrics of single layers (layer = module name), from
// the traced pass. A metric that does not apply to a workload (netcluster
// on the simulated cluster, dfs on a MemStore) reads 0 there.
var perLayer = []metricDef{
	timing("lang.parse_us", "us"),
	timing("lang.check_us", "us"),
	timing("lang.udf_ns_per_call", "ns"),

	timing("ir.ssa_us", "us"),
	count("ir.blocks", "count", "lower"),
	count("ir.instrs", "count", "lower"),

	timing("core.plan_us", "us"),
	count("core.plan_ops", "count", "lower"),
	count("core.combiners_inserted", "count", "higher"),
	count("core.chained_edges", "count", "higher"),
	timing("core.exec_s", "s"),
	count("core.steps", "count", "lower"),
	count("core.ctrl_messages", "count", "lower"),
	count("core.ctrl_bytes", "B", "lower"),
	count("core.cfm_broadcasts", "count", "lower"),
	count("core.decisions", "count", "lower"),
	count("core.bags_out", "count", "lower"),
	count("core.template_installs", "count", "lower"),
	count("core.template_instantiations", "count", "higher"),
	count("core.template_hit_ratio", "ratio", "higher"),
	count("core.join_builds", "count", "lower"),
	count("core.join_build_reuses", "count", "higher"),
	count("core.combine_in", "count", "lower"),
	count("core.combine_out", "count", "lower"),
	count("core.combine_ratio", "ratio", "higher"),
	count("core.delta_in", "count", "lower"),
	count("core.delta_changed", "count", "lower"),
	count("core.delta_touched", "count", "lower"),
	count("core.solution_elements", "count", "lower"),
	count("core.solution_bytes", "B", "lower"),
	count("core.max_buffered_bags", "count", "lower"),

	count("dataflow.elements_sent", "count", "lower"),
	count("dataflow.elements_chained", "count", "higher"),
	count("dataflow.chained_frac", "ratio", "higher"),
	count("dataflow.batches_sent", "count", "lower"),
	count("dataflow.remote_batches", "count", "lower"),
	count("dataflow.bytes_sent", "B", "lower"),
	count("dataflow.bytes_received", "B", "lower"),
	count("dataflow.mailbox_hwm", "count", "lower"),
	count("dataflow.mailbox_dropped", "count", "lower"),
	count("dataflow.partition_skew", "ratio", "lower"),
	timing("dataflow.emit_forward_ns", "ns"),
	timing("dataflow.emit_chained_ns", "ns"),
	timing("dataflow.emit_shuffle_local_ns", "ns"),
	timing("dataflow.emit_shuffle_remote_ns", "ns"),
	timing("dataflow.emit_remote_allocs", "count"),
	timing("dataflow.broadcast_ns", "ns"),

	timing("val.encode_ns", "ns"),
	timing("val.decode_ns", "ns"),
	timing("val.decode_allocs", "count"),
	timing("val.hash_ns", "ns"),
	timing("val.map_update_ns", "ns"),
	count("val.encoded_bytes_per_elem", "B", "lower"),
	count("val.value_bytes", "B", "lower"),

	count("dfs.opens", "count", "lower"),
	count("dfs.blocks_read", "count", "lower"),
	count("dfs.bytes_read", "B", "lower"),
	timing("dfs.read_ms", "ms"),

	count("cluster.ctrl_messages", "count", "lower"),
	count("cluster.net_batches", "count", "lower"),
	count("cluster.net_bytes", "B", "lower"),
	timing("cluster.new_close_us", "us"),

	timing("netcluster.session_setup_ms", "ms"),
	timing("netcluster.ship_merge_ms", "ms"),
	count("netcluster.socket_bytes", "B", "lower"),
	count("netcluster.payload_bytes", "B", "lower"),
	count("netcluster.framing_ratio", "ratio", "lower"),
	count("netcluster.credit_stalls", "count", "lower"),
	timing("netcluster.credit_stall_ms", "ms"),
	count("netcluster.ctrl_messages", "count", "lower"),
	count("netcluster.ctrl_bytes", "B", "lower"),
	count("netcluster.attempts", "count", "lower"),

	timing("mitos.prelude_ms", "ms"),
	timing("obs.metrics_overhead_frac", "ratio"),
	count("obs.series", "count", "lower"),
	{Name: "bench.samples", Unit: "count", Better: "higher", Kind: kindTiming},
	timing("bench.round_spread", "ratio"),
	{Name: "layers.accounted_frac", Unit: "ratio", Better: "higher", Kind: kindTiming},
}
