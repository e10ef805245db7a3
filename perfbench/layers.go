package main

// metricSpec names one reported metric and its unit. The names are the
// benchmark's contract: later changes cite them.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the served store sees, reported by
// untraced runs. failed_frac is reported beside them but is not among
// the gated metrics: it is 0 on every healthy run, and the result line
// carries it as attempted and failed.
var endToEnd = []metricSpec{
	{"throughput_ops", "ops/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"read_rtt_le3_frac", "fraction"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metricSpec{
	{"client.self_us_mean", "us"},
	{"wire.req_bytes_per_op", "B/op"},
	{"wire.resp_bytes_per_op", "B/op"},
	{"net.hop_us_mean", "us"},
	{"server.frame_us_p50", "us"},
	{"server.frame_us_mean", "us"},
	{"server.self_us_mean", "us"},
	{"server.shed_frac", "fraction"},
	{"cluster.query_us_p50", "us"},
	{"cluster.query_us_mean", "us"},
	{"cluster.update_us_p50", "us"},
	{"cluster.update_us_mean", "us"},
	{"cluster.runtime_us_mean", "us"},
	{"cluster.inbound_dropped_per_kop", "drops/kop"},
	{"transport.msgs_per_op", "msgs/op"},
	{"transport.bytes_per_op", "B/op"},
	{"transport.oneway_us_p50", "us"},
	{"transport.oneway_us_mean", "us"},
	{"transport.oneway_us_p99", "us"},
	{"transport.handler_us_mean", "us"},
	{"core.lease_hit_frac", "fraction"},
	{"core.lease_fallback_frac", "fraction"},
	{"core.retries_per_query", "retries/query"},
	{"core.nacks_per_op", "nacks/op"},
	{"core.byvote_frac", "fraction"},
	{"core.step_update_us", "us"},
	{"core.step_query_us", "us"},
	{"core.step_allocs_per_op", "allocs/op"},
	{"crdt.state_bytes", "B"},
	{"crdt.merge_us", "us"},
	{"crdt.marshal_us", "us"},
	{"crdt.unmarshal_us", "us"},
	{"persist.save_batch1_ms", "ms"},
	{"persist.save_batch32_ms", "ms"},
	{"go.allocs_per_op", "allocs/op"},
	{"go.gc_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// layerLink is a prediction written down before any optimisation: a
// change that moves the layer metrics should move the end-to-end metrics
// on the named workloads, and leave the rest alone.
type layerLink struct {
	Layer   string `json:"layer"`
	Metrics string `json:"metrics"`
	Moves   string `json:"moves"`
}

var layerLinks = []layerLink{
	{"client", "client.self_us_mean", "read_p50_ms, throughput_ops on read-mostly"},
	{"internal/wire + loopback", "wire.resp_bytes_per_op", "cpu_us_per_op on large-state"},
	{"internal/wire + loopback", "net.hop_us_mean", "read_p50_ms on read-mostly"},
	{"internal/server", "server.frame_us_p50, server.frame_us_mean, server.self_us_mean", "read_p50_ms on read-mostly"},
	{"internal/server", "server.shed_frac", "failed_frac (expected 0 everywhere)"},
	{"internal/cluster", "cluster.runtime_us_mean", "throughput_ops, cpu_us_per_op on read-mostly and hot-keys"},
	{"internal/transport", "transport.msgs_per_op", "cpu_us_per_op on hot-keys"},
	{"internal/transport", "transport.bytes_per_op", "cpu_us_per_op on large-state"},
	{"internal/transport", "transport.oneway_us_*", "read_p50_ms on read-mostly"},
	{"internal/core", "core.lease_hit_frac, core.lease_fallback_frac", "read_p50_ms on read-mostly"},
	{"internal/core", "core.retries_per_query, core.nacks_per_op, core.byvote_frac", "read_rtt_le3_frac, read_p99_ms on hot-keys"},
	{"internal/core", "core.step_*", "cpu_us_per_op on read-mostly"},
	{"internal/crdt", "crdt.*", "throughput_ops, cpu_us_per_op on large-state; no change on read-mostly"},
	{"internal/persist", "persist.save_batch1_ms, persist.save_batch32_ms", "no end-to-end metric: no workload gives the replicas a data directory"},
	{"Go runtime", "go.allocs_per_op, go.gc_cpu_frac", "cpu_us_per_op on large-state and read-mostly"},
}
