package main

// metricDef names one reported number. Better is "higher" or "lower"; Bound
// is the share of the reference value by which the metric may get worse
// before a change counts as a regression (0 for per-layer metrics, which
// explain a movement and are never gated).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports from its untraced run and
// the driver gates. A "unit" of work is one scored (positive, negative) pair
// on the training workloads and one HTTP request on serve-zipf.
//
// The bounds come from the spread measured on the 2-core box that defined
// the benchmark (ten seeds per workload, interquartile range as a share of
// the median; baseline.json keeps the table). Its wall-clock and CPU numbers
// drift by 10-20 % over minutes whatever the estimator, so the timed metrics
// carry the widest bound the contract allows; the byte count spreads by
// under 1 % (its seed-to-seed variation, not noise: it repeats for a seed).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_unit", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_unit", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "quality", Unit: "ratio", Better: "higher", Bound: 0.25},
}

// extraEndToEnd are end-to-end numbers that exist on only some workloads.
// The driver's contract wants every gated metric on every workload, so
// these are printed and selfchecked by the native run and reach the driver
// through the per-layer list (as train.final_loss, serve.predict_ms_p50, ...
// at the end of perLayer), where a workload they do not apply to reports 0.
var extraEndToEnd = []metricDef{
	{Name: "final_loss", Unit: "loss", Better: "lower", Bound: 0.02},
	{Name: "serve_predict_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_predict_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_score_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "serve_neighbors_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the numbers of single layers (this repo's packages). Unless
// marked counter they come from the traced replay; counters are read from
// the registry of the untraced pass that precedes the replay.
var perLayer = []metricDef{
	{Name: "dataset.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.edge_cut_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sampler.next_us_p50", Unit: "us", Better: "lower"},
	{Name: "sampler.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "sampler.batches", Unit: "count", Better: "lower"},

	{Name: "cache.get_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "cache.update_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "cache.build_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cache.prefetch_filter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cache.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},   // counter
	{Name: "cache.refresh_rows", Unit: "count", Better: "lower"}, // counter

	{Name: "ps.client.pull_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.client.push_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.client.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "ps.client.pull_rpcs", Unit: "count", Better: "lower"},     // counter
	{Name: "ps.client.push_rpcs", Unit: "count", Better: "lower"},     // counter
	{Name: "ps.client.rows_per_pull", Unit: "count", Better: "lower"}, // counter

	{Name: "ps.tcp.pull_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.tcp.pull_rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "ps.tcp.push_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.tcp.push_rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "ps.tcp.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "ps.tcp.bytes_tx", Unit: "B", Better: "lower"},
	{Name: "ps.tcp.bytes_rx", Unit: "B", Better: "lower"},
	{Name: "ps.tcp.wire_over_payload", Unit: "ratio", Better: "lower"},
	{Name: "ps.link.retries", Unit: "count", Better: "lower"}, // counter

	{Name: "ps.server.pull_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.server.apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.server.apply_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "ps.server.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "ps.server.rows_pulled", Unit: "count", Better: "lower"}, // counter
	{Name: "ps.server.rows_pushed", Unit: "count", Better: "lower"}, // counter

	{Name: "ps.codec.pull_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.codec.push_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "ps.codec.compression_ratio", Unit: "ratio", Better: "higher"}, // counter
	{Name: "ps.codec.rows_delta_share", Unit: "ratio", Better: "higher"},  // counter

	{Name: "model.grad_ms_per_batch_p50", Unit: "ms", Better: "lower"},
	{Name: "model.ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "model.busy_share", Unit: "ratio", Better: "lower"},

	{Name: "eval.triples_per_s", Unit: "1/s", Better: "higher"},

	{Name: "serve.http.predict_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.http.score_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.http.neighbors_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.http.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.tier.hit_ratio", Unit: "ratio", Better: "higher"}, // counter
	{Name: "serve.tier.rebuilds", Unit: "count", Better: "lower"},   // counter
	{Name: "serve.tier.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.tier.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.batcher.predict_direct_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.batcher.predict_direct_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.batcher.batch_size_mean", Unit: "count", Better: "higher"}, // counter
	{Name: "serve.batcher.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "knn.neighbors_direct_us_p50", Unit: "us", Better: "lower"},
	{Name: "knn.neighbors_http_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "knn.busy_share", Unit: "ratio", Better: "lower"},

	{Name: "runtime.alloc_bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "runtime.mallocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},

	{Name: "train.final_loss", Unit: "loss", Better: "lower"},
	{Name: "serve.predict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.predict_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.score_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.neighbors_ms_p50", Unit: "ms", Better: "lower"},
}
