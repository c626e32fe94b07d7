package main

// metricDef says how a metric is judged. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none (bound 0, endToEnd false). BENCHMARK.json repeats this table for the
// driver; TestBenchmarkJSONMatchesTable keeps the two the same.
type metricDef struct {
	unit     string
	higher   bool // higher is better
	bound    float64
	endToEnd bool
}

func e2e(unit string, higher bool, bound float64) metricDef {
	return metricDef{unit: unit, higher: higher, bound: bound, endToEnd: true}
}

func lower(unit string) metricDef  { return metricDef{unit: unit} }
func higher(unit string) metricDef { return metricDef{unit: unit, higher: true} }

// endToEndOrder and perLayerOrder fix the order metrics are printed in.
var endToEndOrder = []string{
	"setup_s", "pages_per_s", "latency_p50_ms", "latency_p99_ms",
	"server_cpu_us_per_page", "server_rss_mb", "heal_ms",
}

// perLayerOrder lists the traced run's metrics, layer by layer down the
// request path, then the learning path, then the writes, then the run's own
// validity numbers.
var perLayerOrder = []string{
	"htmlparse.parse_us", "htmlparse.nodes", "htmlparse.allocs", "htmlparse.parse_unpooled_us", "corpus.parse_ms",
	"xpath.eval_us", "lr.apply_us", "wrapper.apply_allocs",
	"extract.one_us", "extract.one_self_us", "extract.one_allocs", "extract.run16_us", "extract.pool_speedup",
	"serve.dispatch_us", "serve.dispatch_self_us", "serve.dispatch_allocs",
	"serve.handler_us", "serve.handler_self_us", "serve.handler_allocs", "serve.req_bytes", "serve.resp_bytes",
	"serve.gate_ns", "serve.gate_rejected", "serve.gate_timed_out",
	"serve.router_self_us", "shard.owner_ns", "serve.http_hop_us", "serve.forward_hop_us", "serve.forward_allocs",
	"serve.server_p50_us",
	"annotate.dict_ms", "xpinduct.build_ms", "enum.topdown_ms", "enum.bottomup_ms", "enum.induce_calls", "enum.wrappers",
	"rank.score_us_per_candidate", "core.learn_ms", "core.learn_self_ms", "core.learn_allocs", "core.learn_mb", "lr.learn_ms",
	"engine.batch_sites_per_s", "engine.pool_speedup", "drift.repair_ms", "drift.observe_ns",
	"store.compile_us", "store.put_promote_us", "logstore.append_sync_us", "logstore.append_group_us",
	"filestore.persist_us", "audit.append_us", "jobs.submit_us", "jobs.cpu_ms_per_heal",
	"heal_p50_ms", "heal_p90_ms", "sites_healed_per_s", "server_rss_peak_mb", "record_f1", "fail_share",
	"loadgen.cpu_share", "loadgen.late_p99_ms", "loadgen.achieved_rate_share",
	"client.send_us", "client.wait_us", "client.verify_us", "client.self_us",
	"trace.overhead_share", "client.unloaded_us", "model.unloaded_gap_share", "model.gap_share", "model.heal_gap_share",
}

var metricDefs = map[string]metricDef{
	"setup_s":                e2e("s", false, 0.25),
	"pages_per_s":            e2e("1/s", true, 0.25),
	"latency_p50_ms":         e2e("ms", false, 0.25),
	"latency_p99_ms":         e2e("ms", false, 0.25),
	"server_cpu_us_per_page": e2e("us", false, 0.25),
	"server_rss_mb":          e2e("MB", false, 0.15),
	"heal_ms":                e2e("ms", false, 0.25),

	"htmlparse.parse_us":          lower("us"),
	"htmlparse.nodes":             lower("count"),
	"htmlparse.allocs":            lower("count"),
	"htmlparse.parse_unpooled_us": lower("us"),
	"corpus.parse_ms":             lower("ms"),
	"xpath.eval_us":               lower("us"),
	"lr.apply_us":                 lower("us"),
	"wrapper.apply_allocs":        lower("count"),
	"extract.one_us":              lower("us"),
	"extract.one_self_us":         lower("us"),
	"extract.one_allocs":          lower("count"),
	"extract.run16_us":            lower("us"),
	"extract.pool_speedup":        higher("x"),
	"serve.dispatch_us":           lower("us"),
	"serve.dispatch_self_us":      lower("us"),
	"serve.dispatch_allocs":       lower("count"),
	"serve.handler_us":            lower("us"),
	"serve.handler_self_us":       lower("us"),
	"serve.handler_allocs":        lower("count"),
	"serve.req_bytes":             lower("B"),
	"serve.resp_bytes":            lower("B"),
	"serve.gate_ns":               lower("ns"),
	"serve.gate_rejected":         lower("count"),
	"serve.gate_timed_out":        lower("count"),
	"serve.router_self_us":        lower("us"),
	"shard.owner_ns":              lower("ns"),
	"serve.http_hop_us":           lower("us"),
	"serve.forward_hop_us":        lower("us"),
	"serve.forward_allocs":        lower("count"),
	"serve.server_p50_us":         lower("us"),
	"annotate.dict_ms":            lower("ms"),
	"xpinduct.build_ms":           lower("ms"),
	"enum.topdown_ms":             lower("ms"),
	"enum.bottomup_ms":            lower("ms"),
	"enum.induce_calls":           lower("count"),
	"enum.wrappers":               lower("count"),
	"rank.score_us_per_candidate": lower("us"),
	"core.learn_ms":               lower("ms"),
	"core.learn_self_ms":          lower("ms"),
	"core.learn_allocs":           lower("count"),
	"core.learn_mb":               lower("MB"),
	"lr.learn_ms":                 lower("ms"),
	"engine.batch_sites_per_s":    higher("1/s"),
	"engine.pool_speedup":         higher("x"),
	"drift.repair_ms":             lower("ms"),
	"drift.observe_ns":            lower("ns"),
	"store.compile_us":            lower("us"),
	"store.put_promote_us":        lower("us"),
	"logstore.append_sync_us":     lower("us"),
	"logstore.append_group_us":    lower("us"),
	"filestore.persist_us":        lower("us"),
	"audit.append_us":             lower("us"),
	"jobs.submit_us":              lower("us"),
	"jobs.cpu_ms_per_heal":        lower("ms"),
	"heal_p50_ms":                 lower("ms"),
	"heal_p90_ms":                 lower("ms"),
	"sites_healed_per_s":          higher("1/s"),
	"server_rss_peak_mb":          lower("MB"),
	"record_f1":                   higher("share"),
	"fail_share":                  lower("share"),
	"loadgen.cpu_share":           lower("share"),
	"loadgen.late_p99_ms":         lower("ms"),
	"loadgen.achieved_rate_share": higher("share"),
	"trace.overhead_share":        lower("share"),
	"client.send_us":              lower("us"),
	"client.wait_us":              lower("us"),
	"client.verify_us":            lower("us"),
	"client.self_us":              lower("us"),
	"client.unloaded_us":          lower("us"),
	"model.unloaded_gap_share":    lower("share"),
	"model.gap_share":             lower("share"),
	"model.heal_gap_share":        lower("share"),
}
