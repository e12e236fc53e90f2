package main

// metricDef names one reported metric and its unit. BENCHMARK.json adds
// the direction and, for end-to-end metrics, the regression bound; a
// test keeps the two lists in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the servers would see, reported by
// every workload with tracing off. Virtual time carries the unit vns —
// nanoseconds of the simulated machine's clock, a count the program
// makes, not a time the host measured.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"server_cpu_us_per_req", "us"},
	{"virtual_ns_per_req", "vns"},
	{"allocs_per_req", "count"},
}

// perLayer are the single-layer metrics, reported by every workload
// with tracing on, outermost layer first.
var perLayer = []metricDef{
	{"client.cpu_us_per_req", "us"},
	{"client.samples", "count"},
	{"netserver.cpu_util", "cores"},
	{"netserver.rss_mb", "MiB"},
	{"netserver.socket_share", "share"},
	{"replay.host_ns_per_req", "ns"},
	{"replay.host_ns_spread", "share"},
	{"trace.overhead_pct", "%"},
	{"trace.request_self_ns", "ns"},
	{"trace.protocol_read_self_ns", "ns"},
	{"trace.gateway_admit_self_ns", "ns"},
	{"trace.handle_self_ns", "ns"},
	{"trace.protocol_write_self_ns", "ns"},
	{"trace.gateway_done_self_ns", "ns"},
	{"ladder.sum_ns", "ns"},
	{"ladder.residual_pct", "%"},
	{"protocol.read_ns", "ns"},
	{"protocol.write_ns", "ns"},
	{"protocol.allocs", "count"},
	{"gateway.admit_done_ns", "ns"},
	{"gateway.allocs", "count"},
	{"gateway.rejected_share", "share"},
	{"submit.hop_ns", "ns"},
	{"submit.allocs", "count"},
	{"cluster.router_handle_ns", "ns"},
	{"cluster.router_self_ns", "ns"},
	{"cluster.router_allocs", "count"},
	{"cluster.virtual_ns_per_req", "vns"},
	{"kvstore.pool_handle_ns", "ns"},
	{"kvstore.pool_self_ns", "ns"},
	{"kvstore.server_handle_ns", "ns"},
	{"kvstore.server_self_ns", "ns"},
	{"kvstore.server_virtual_ns", "vns"},
	{"kvstore.native_virtual_ns", "vns"},
	{"kvstore.sdrad_overhead_pct", "%"},
	{"kvstore.batch32_virtual_ns", "vns"},
	{"kvstore.batch32_host_ns", "ns"},
	{"kvstore.get_hit_share", "share"},
	{"kvstore.contained", "count"},
	{"httpd.pool_serve_ns", "ns"},
	{"httpd.server_virtual_ns", "vns"},
	{"sdrad.domain_do_ns", "ns"},
	{"sdrad.domain_do_virtual_ns", "vns"},
	{"sdrad.domain_do_allocs", "count"},
	{"sdrad.pool_do_ns", "ns"},
	{"sdrad.async_submit_ns", "ns"},
	{"core.enter_exit_ns", "ns"},
	{"core.enter_exit_virtual_ns", "vns"},
	{"core.rewind_ns", "ns"},
	{"core.rewind_virtual_ns", "vns"},
	{"alloc.alloc_free_ns", "ns"},
	{"alloc.alloc_free_virtual_ns", "vns"},
	{"alloc.check_integrity_ns", "ns"},
	{"mem.store_load_ns", "ns"},
	{"mem.store_load_virtual_ns", "vns"},
	{"mem.tlb_hit_share", "share"},
	{"persist.append_fsync_ns", "ns"},
	{"persist.append_nofsync_ns", "ns"},
	{"persist.snapshot_ns", "ns"},
	{"persist.wal_bytes_per_set", "B"},
}
