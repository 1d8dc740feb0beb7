package main

// metricDef names one metric. This table is the single definition of
// the benchmark's metrics: BENCHMARK.json repeats it for the acceptance
// driver (a test keeps the two equal), -compare reads the bounds from
// it, and README.md explains each entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what the three shape metrics mean on each
// workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_norm", "spin", "lower", 0.20},
	{"alloc_mb", "MB", "lower", 0.03},
	{"virtual_s", "s", "lower", 0.02},
	{"usd", "USD", "lower", 0.02},
	{"fast_virtual_s", "s", "lower", 0.08},
	{"tail_virtual_s", "s", "lower", 0.08},
	{"slowdown_max", "ratio", "lower", 0.08},
}

// simulated are the end-to-end metrics read off the virtual clock: for
// a fixed seed they repeat exactly, rep to rep and run to run.
var simulated = []string{"virtual_s", "usd", "fast_virtual_s", "tail_virtual_s", "slowdown_max"}

// perLayer are the metrics of single layers, prefix = module. They
// have no bound. Counters ("c" in README.md) are deterministic and come
// from the workload's reps; probes ("p") and spans ("s") are host
// measurements.
var perLayer = []metricDef{
	{"des.events", "count", "lower", 0},
	{"des.ns_per_event", "ns", "lower", 0},
	{"des.host_share", "ratio", "lower", 0},
	{"des.schedule_fire_ns", "ns", "lower", 0},
	{"des.cancel_ns", "ns", "lower", 0},
	{"des.park_wake_ns", "ns", "lower", 0},
	{"des.spawn_ns", "ns", "lower", 0},
	{"des.link_transfer_ns_f8", "ns", "lower", 0},
	{"des.link_transfer_ns_f256", "ns", "lower", 0},

	{"objectstore.class_a_ops", "count", "lower", 0},
	{"objectstore.class_b_ops", "count", "lower", 0},
	{"objectstore.bytes_in_mb", "MB", "lower", 0},
	{"objectstore.bytes_out_mb", "MB", "lower", 0},
	{"objectstore.throttled", "count", "lower", 0},
	{"objectstore.client_retries", "count", "lower", 0},
	{"objectstore.put_get_ns", "ns", "lower", 0},
	{"objectstore.get_stream_chunk_ns", "ns", "lower", 0},
	{"objectstore.put_stream_part_ns", "ns", "lower", 0},
	{"objectstore.ops_per_virtual_s", "1/s", "higher", 0},

	{"faas.invocations", "count", "lower", 0},
	{"faas.cold_starts", "count", "lower", 0},
	{"faas.warm_starts", "count", "higher", 0},
	{"faas.retries", "count", "lower", 0},
	{"faas.failed_attempts", "count", "lower", 0},
	{"faas.gb_seconds", "GB.s", "lower", 0},
	{"faas.exec_virtual_s", "s", "lower", 0},
	{"faas.invoke_ns", "ns", "lower", 0},
	{"faas.map_sync_ns_per_task", "ns", "lower", 0},

	{"memcache.set_ops", "count", "lower", 0},
	{"memcache.get_ops", "count", "lower", 0},
	{"memcache.hit_ratio", "ratio", "higher", 0},
	{"memcache.bytes_in_mb", "MB", "lower", 0},
	{"memcache.set_get_ns", "ns", "lower", 0},
	{"memcache.mget_ns_per_key", "ns", "lower", 0},

	{"vm.instances", "count", "lower", 0},
	{"vm.billed_virtual_s", "s", "lower", 0},
	{"vm.preemptions", "count", "lower", 0},
	{"vm.run_parallel_ns", "ns", "lower", 0},

	{"shuffle.sort_sized_w8_norm", "spin", "lower", 0},
	{"shuffle.sort_sized_w8_virtual_s", "s", "lower", 0},
	{"shuffle.sort_sized_w128_norm", "spin", "lower", 0},
	{"shuffle.sort_sized_w128_virtual_s", "s", "lower", 0},
	{"shuffle.hier_sort_sized_w128_norm", "spin", "lower", 0},
	{"shuffle.hier_sort_sized_w128_virtual_s", "s", "lower", 0},
	{"shuffle.cache_sort_sized_w8_norm", "spin", "lower", 0},
	{"shuffle.cache_sort_sized_w8_virtual_s", "s", "lower", 0},
	{"shuffle.sort_real_mb_per_s", "MB/s", "higher", 0},
	{"shuffle.hier_sort_real_mb_per_s", "MB/s", "higher", 0},
	{"shuffle.cache_sort_real_mb_per_s", "MB/s", "higher", 0},
	{"shuffle.predict_err_pct", "%", "lower", 0},

	{"autoplan.plan_ms", "ms", "lower", 0},
	{"autoplan.candidates", "count", "lower", 0},
	{"autoplan.residual_pct", "%", "lower", 0},

	{"bed.unmarshal_mb_per_s", "MB/s", "higher", 0},
	{"bed.marshal_mb_per_s", "MB/s", "higher", 0},
	{"bed.sort_mrec_per_s", "Mrec/s", "higher", 0},
	{"bed.key_of_line_ns", "ns", "lower", 0},
	{"methcomp.compress_mb_per_s", "MB/s", "higher", 0},
	{"methcomp.decompress_mb_per_s", "MB/s", "higher", 0},
	{"methcomp.ratio", "ratio", "higher", 0},

	{"core.stage.sort.virtual_s", "s", "lower", 0},
	{"core.stage.encode.virtual_s", "s", "lower", 0},
	{"core.stage.sort.host_share", "ratio", "lower", 0},
	{"core.stage.encode.host_share", "ratio", "lower", 0},
	{"core.run_overhead_us", "us", "lower", 0},

	{"gateway.admitted", "count", "higher", 0},
	{"gateway.completed", "count", "higher", 0},
	{"gateway.shed", "count", "lower", 0},
	{"gateway.rate_rejected", "count", "lower", 0},
	{"gateway.queue_rejected", "count", "lower", 0},
	{"gateway.rounds", "count", "lower", 0},
	{"gateway.starved", "count", "lower", 0},
	{"gateway.generator_late_virtual_s", "s", "lower", 0},
	{"gateway.submit_ns", "ns", "lower", 0},
	{"gateway.auth_ns", "ns", "lower", 0},

	{"chaos.faults_fired", "count", "higher", 0},
	{"chaos.restarts", "count", "lower", 0},
	{"chaos.rework_mb", "MB", "lower", 0},
	{"chaos.fallback_slabs", "count", "lower", 0},
	{"chaos.cells_completed", "count", "higher", 0},

	{"paper.latency_err_pct", "%", "lower", 0},
	{"paper.cost_err_pct", "%", "lower", 0},
	{"paper.auto_regret_pct", "%", "lower", 0},
	{"paper.sweep_best_workers", "count", "lower", 0},

	{"runtime.mallocs_k", "k", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_sys_mb", "MB", "lower", 0},
	{"runtime.wall_s_maxprocs_n", "s", "lower", 0},
	{"runtime.trace_overhead_pct", "%", "lower", 0},

	{"harness.host_share", "ratio", "lower", 0},
	{"harness.failed_share", "ratio", "lower", 0},
	{"harness.spin_ms", "ms", "lower", 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
