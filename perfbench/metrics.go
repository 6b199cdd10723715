package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves is the end-to-end metric, and the workloads, a per-layer
	// metric is expected to move when its layer changes.
	moves string
}

// endToEnd are the host-side metrics a user of the simulator sees, all
// measured with tracing off. The time bounds fit a shared 2-vCPU box,
// whose speed drifts ±8% between runs a minute apart; setup_s carries
// the largest bound, being a few cold calls and the noisiest figure.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.24},
	{name: "wall_s_tail", unit: "s", better: "lower", bound: 0.24},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ns_per_event", unit: "ns", better: "lower", bound: 0.24},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "ok_share", unit: "share", better: "higher", bound: 0.01},
}

const (
	movesSort     = "wall_s: sort path on dc-hadoop, slot recycling on kv-chaos, barrier wait on dc-hadoop-2shard"
	movesFabric   = "wall_s on dc-hadoop; ~none on kv-chaos"
	movesTrans    = "wall_s on incast-fanin; none on dc-hadoop"
	movesKV       = "wall_s on kv-chaos only"
	movesSetup    = "setup_s on every workload, most on dc-hadoop"
	movesRuntime  = "wall_s on kv-chaos and incast-fanin; peak_heap_mb on dc-hadoop"
	movesHarness  = "wall_s on every workload"
	movesBarriers = "wall_s on dc-hadoop-2shard only"
)

// perLayer are the traced run's metrics: self time from the CPU
// profile, counts from exp.Result, kv.Report, ShardStats and
// runtime/metrics, and set-up times from the benchmark's spans. Counts
// are per pass.
var perLayer = []metricDef{
	{name: "sim.self_s", unit: "s", better: "lower", moves: movesSort},
	{name: "sim.self_share", unit: "share", better: "lower", moves: movesSort},
	{name: "sim.events", unit: "count", better: "lower", moves: movesSort},
	{name: "sim.self_ns_per_event", unit: "ns", better: "lower", moves: movesSort},
	{name: "sim.barriers", unit: "count", better: "lower", moves: movesBarriers},
	{name: "sim.wide_windows", unit: "count", better: "higher", moves: movesBarriers},
	{name: "sim.events_per_barrier", unit: "events", better: "higher", moves: movesBarriers},
	{name: "sim.barrier_wait_share", unit: "share", better: "lower", moves: movesBarriers},

	{name: "fabric.self_s", unit: "s", better: "lower", moves: movesFabric},
	{name: "fabric.self_share", unit: "share", better: "lower", moves: movesFabric},
	{name: "fabric.injected", unit: "count", better: "lower", moves: movesFabric},
	{name: "fabric.delivered_share", unit: "share", better: "higher", moves: movesFabric},
	{name: "fabric.self_ns_per_packet", unit: "ns", better: "lower", moves: movesFabric},
	{name: "fabric.overflow_drops", unit: "count", better: "lower", moves: movesTrans},
	{name: "fabric.pause_frames", unit: "count", better: "lower", moves: movesFabric},
	{name: "fabric.ecn_marked", unit: "count", better: "lower", moves: movesFabric},
	{name: "fabric.boundary_drains", unit: "count", better: "lower", moves: movesBarriers},
	{name: "fabric.build_s", unit: "s", better: "lower", moves: "setup_s on dc-hadoop"},

	{name: "core.self_share", unit: "share", better: "lower", moves: movesTrans},
	{name: "rocev2.self_share", unit: "share", better: "lower", moves: movesTrans},
	{name: "bitmap.self_share", unit: "share", better: "lower", moves: movesTrans},
	{name: "transport.self_share", unit: "share", better: "lower", moves: movesTrans},
	{name: "cc.self_share", unit: "share", better: "lower", moves: movesTrans},
	{name: "packet.self_share", unit: "share", better: "lower", moves: movesFabric},
	{name: "transport.retransmits", unit: "count", better: "lower", moves: movesTrans},
	{name: "transport.timeouts", unit: "count", better: "lower", moves: movesTrans},
	{name: "transport.retx_share", unit: "share", better: "lower", moves: movesTrans},

	{name: "verbs.self_share", unit: "share", better: "lower", moves: movesKV},
	{name: "kv.self_share", unit: "share", better: "lower", moves: movesKV},
	{name: "kv.requests", unit: "count", better: "higher", moves: movesKV},
	{name: "kv.retries", unit: "count", better: "lower", moves: movesKV},
	{name: "kv.giveups", unit: "count", better: "lower", moves: movesKV},
	{name: "kv.host_us_per_request", unit: "us", better: "lower", moves: movesKV},

	{name: "fault.self_share", unit: "share", better: "lower", moves: movesKV},
	{name: "fault.compile_s", unit: "s", better: "lower", moves: movesSetup},
	{name: "metrics.self_share", unit: "share", better: "lower", moves: movesFabric},
	{name: "metrics.bytes", unit: "B", better: "lower", moves: "peak_heap_mb on dc-hadoop"},
	{name: "workload.self_share", unit: "share", better: "lower", moves: movesSetup},
	{name: "workload.generate_s", unit: "s", better: "lower", moves: movesSetup},
	{name: "topo.self_share", unit: "share", better: "lower", moves: movesSetup},
	{name: "topo.build_s", unit: "s", better: "lower", moves: movesSetup},
	{name: "exp.self_share", unit: "share", better: "lower", moves: movesHarness},

	{name: "goruntime.self_share", unit: "share", better: "lower", moves: movesRuntime},
	{name: "goruntime.alloc_bytes_per_event", unit: "B", better: "lower", moves: movesRuntime},
	{name: "goruntime.allocs_per_event", unit: "count", better: "lower", moves: movesRuntime},
	{name: "goruntime.gc_cycles", unit: "count", better: "lower", moves: movesRuntime},
	{name: "goruntime.gc_cpu_share", unit: "share", better: "lower", moves: movesRuntime},
	{name: "other.self_share", unit: "share", better: "lower", moves: movesHarness},

	{name: "trace.overhead", unit: "share", better: "lower", moves: "none: traced over untraced wall_s - 1"},
	{name: "trace.samples", unit: "count", better: "higher", moves: "none: CPU profile samples a traced pass"},
	{name: "trace.unlabeled_share", unit: "share", better: "lower", moves: "none: profiled CPU outside every scenario label"},
}
