package main

// metricDef is one reported figure: its name and unit. The lists below are
// the benchmark's whole vocabulary; BENCHMARK.json at the repository root
// lists the same names (TestMetricNamesListed).
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees, reported by
// untraced runs. failed_frac is printed beside them but travels in the
// result line's attempted/failed counts: it is 0 on a healthy build, so it
// cannot carry a bound relative to its own median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
	{"evals_per_s", "1/s"},
	{"mean_gap", "ratio"},
}

// perLayer are the traced run's figures, one group per package the
// benchmark reaches through an exported seam. A layer a workload does not
// pass through reads 0 there.
var perLayer = []metricDef{
	{"decode.ns_per_genome", "ns"},
	{"decode.genomes_per_job", "count"},
	{"op.cross_ns_per_child", "ns"},
	{"op.mutate_ns_per_child", "ns"},
	{"op.select_ns_per_pick", "ns"},
	{"core.step_ns", "ns"},
	{"core.step_self_ns", "ns"},
	{"core.step_allocs", "count"},
	{"core.worker_speedup", "ratio"},
	{"core.op_share", "ratio"},
	{"core.decode_share", "ratio"},
	{"core.self_share", "ratio"},
	{"island.epoch_ms", "ms"},
	{"island.epochs_per_job", "count"},
	{"solver.queue_ms", "ms"},
	{"solver.run_ms", "ms"},
	{"solver.events_per_job", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.events_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.overhead_share", "ratio"},
	{"serve.sse_frames_per_job", "count"},
	{"jobstore.put_ms", "ms"},
	{"jobstore.append_ms_p50", "ms"},
	{"jobstore.append_ms_p90", "ms"},
	{"jobstore.appends_per_job", "count"},
	{"jobstore.bytes_per_job", "bytes"},
	{"jobstore.errors", "count"},
	{"client.requests_per_job", "count"},
	{"client.retries", "count"},
	{"federation.exchange_ms_p50", "ms"},
	{"federation.exchange_ms_p90", "ms"},
	{"federation.barrier_share", "ratio"},
	{"federation.push_ms", "ms"},
	{"federation.push_bytes", "bytes"},
	{"federation.migrants_per_job", "count"},
	{"federation.peer_timeouts", "count"},
	{"trace_overhead", "ratio"},
}

// metric is one measured value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
