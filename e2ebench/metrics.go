package main

// metricDef names one reported metric. Every metric is reported on every
// workload as the median of its samples, or their mean when mean is set;
// for per-layer metrics, target and workload record the end-to-end metric
// the layer should move and the workload where that shows most.
type metricDef struct {
	name, unit, better string
	mean               bool
	target, workload   string
}

// endToEnd are the metrics a user of the planner or the service sees,
// reported with tracing off. fail_ratio is printed in the table but not
// listed here: it is 0 on a correct run, so it is carried by the result
// line's failed/attempted counts and any failure fails the run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "plan_s", unit: "s", better: "lower"},
	// A mean, like go test's B/op: allocation is exact per instance, so
	// the mean over a run's instances follows the instance mix smoothly
	// where a median would jump between instances.
	{name: "plan_alloc_mb", unit: "MB", better: "lower", mean: true},
	{name: "check_s", unit: "s", better: "lower"},
	{name: "objective_h", unit: "h", better: "lower"},
	{name: "lb_gap", unit: "ratio", better: "lower"},
	{name: "serve_p50_ms", unit: "ms", better: "lower"},
	{name: "serve_p99_ms", unit: "ms", better: "lower"},
	{name: "serve_rps", unit: "1/s", better: "higher"},
}

// failRatio is the table-only end-to-end metric described above.
const failRatio = "fail_ratio"

func layer(name, unit, better, target, workload string) metricDef {
	return metricDef{name: name, unit: unit, better: better, target: target, workload: workload}
}

// perLayer are the traced run's metrics, each timed by calling the
// layer's public Go functions from this benchmark.
var perLayer = []metricDef{
	layer("geom.grid_s", "s", "lower", "plan_s", "verified-30k"),
	layer("graph.unitdisk_s", "s", "lower", "plan_s", "verified-30k"),
	layer("graph.gc_edges", "count", "lower", "plan_s", "verified-30k"),
	layer("graph.intersection_s", "s", "lower", "plan_s", "verified-30k"),
	layer("graph.h_edges", "count", "lower", "plan_s", "verified-30k"),
	layer("graph.mis_s", "s", "lower", "plan_s", "verified-30k"),
	layer("graph.si_size", "count", "lower", "plan_s", "verified-30k"),
	layer("graph.vh_size", "count", "lower", "plan_s", "verified-30k"),
	layer("ktour.minmax_s", "s", "lower", "plan_s", "verified-30k"),
	layer("ktour.grand_tour_s", "s", "lower", "plan_s", "serve-mix"),
	layer("ktour.split_s", "s", "lower", "plan_s", "verified-30k"),
	layer("core.appro_s", "s", "lower", "plan_s", "verified-30k"),
	layer("core.insertion_s", "s", "lower", "plan_s", "verified-30k"),
	layer("core.execute_s", "s", "lower", "plan_s", "verified-30k"),
	layer("core.untraced_s", "s", "lower", "plan_s", "verified-30k"),
	layer("core.verify_s", "s", "lower", "check_s", "verified-30k"),
	layer("core.stops", "count", "lower", "objective_h", "verified-30k"),
	layer("lowerbound.compute_s", "s", "lower", "check_s", "verified-30k"),
	layer("lowerbound.packed", "count", "higher", "lb_gap", "verified-30k"),
	layer("export.encode_s", "s", "lower", "serve_p50_ms", "serve-mix"),
	layer("export.bytes", "bytes", "lower", "serve_p50_ms", "serve-mix"),
	layer("plancache.key_s", "s", "lower", "serve_p50_ms", "serve-mix"),
	layer("plancache.clone_s", "s", "lower", "serve_p50_ms", "serve-mix"),
	layer("plancache.hit_ratio", "ratio", "higher", "serve_rps", "serve-mix"),
	layer("plancache.evictions", "count", "lower", "serve_rps", "serve-mix"),
	layer("serve.decode_ms", "ms", "lower", "serve_p50_ms", "serve-mix"),
	layer("serve.handler_hit_ms", "ms", "lower", "serve_p50_ms", "serve-mix"),
	layer("serve.handler_miss_ms", "ms", "lower", "serve_p99_ms", "serve-mix"),
	layer("serve.net_ms", "ms", "lower", "serve_p50_ms", "serve-mix"),
	layer("par.pool_rejected", "count", "lower", failRatio, "serve-mix"),
	layer("obs.overhead_s", "s", "lower", "plan_s", "verified-30k"),
}
