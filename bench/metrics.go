package main

import (
	"math"
	"sort"
)

// metric is one reported value. The unit travels with it so every
// output (table, result line, result file) names it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def declares a metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; layer
// metrics have none.
type def struct {
	Name   string
	Unit   string
	Higher bool
	Bound  float64
}

// endToEnd is what a user of the system sees. The result contract wants
// every metric from every workload, so the names are generic and each
// workload documents what its cycle and side operation are (see
// workloads and README.md).
var endToEnd = []def{
	{"events_per_s", "1/s", true, 0.25},
	{"cycle_p50_ms", "ms", false, 0.25},
	{"cycle_p95_ms", "ms", false, 0.25},
	{"side_p50_ms", "ms", false, 0.25},
	{"alloc_bytes_per_event", "B/event", false, 0.15},
	{"allocs_per_event", "1/event", false, 0.06},
	{"setup_s", "s", false, 0.25},
}

// layers are single-layer metrics from the traced run. A workload that
// does not exercise a layer reports 0 for it.
var layers = []def{
	// internal/serve: API and tenant queue.
	{"serve.ingest_post_p50_ms", "ms", false, 0},
	{"serve.flush_post_p50_ms", "ms", false, 0},
	{"serve.window_p99_ms", "ms", false, 0},
	{"serve.self_ms_per_window", "ms", false, 0},
	{"serve.self_share", "share", false, 0},
	{"serve.queue_depth_max", "count", false, 0},
	{"serve.http_requests", "count", false, 0},
	{"serve.rejected_429", "count", false, 0},
	{"serve.tenant_errors", "count", false, 0},
	{"serve.put_baseline_ms", "ms", false, 0},
	// internal/serve: store.
	{"store.save_report_us", "us", false, 0},
	{"store.load_report_us", "us", false, 0},
	{"store.list_reports_ms", "ms", false, 0},
	{"store.report_bytes", "B", false, 0},
	{"store.save_baseline_ms", "ms", false, 0},
	// internal/flowlog and internal/flowlog/colseg.
	{"flowlog.decode_json_us_per_kevent", "us/kevent", false, 0},
	{"flowlog.json_wire_bytes_per_event", "B/event", false, 0},
	{"colseg.decode_us_per_kevent", "us/kevent", false, 0},
	{"colseg.encode_us_per_kevent", "us/kevent", false, 0},
	{"colseg.wire_bytes_per_event", "B/event", false, 0},
	{"colseg.segments_read", "count", false, 0},
	{"colseg.bytes_decoded", "B", false, 0},
	// flowdiff root package.
	{"monitor.new_ms", "ms", false, 0},
	{"monitor.observe_us_per_kevent", "us/kevent", false, 0},
	{"monitor.flush_ms_per_window", "ms", false, 0},
	{"monitor.flush_alloc_bytes_per_event", "B/event", false, 0},
	{"monitor.share_of_window", "share", false, 0},
	{"monitor.windows", "count", true, 0},
	{"monitor.abstained", "count", false, 0},
	{"flowdiff.build_reader_serial_ms", "ms", false, 0},
	{"flowdiff.build_reader_parallel_ms", "ms", false, 0},
	// internal/core/signature and appgroup: existing obs spans, per
	// operation (window or compare).
	{"signature.extract_ms", "ms", false, 0},
	{"signature.groups_ms", "ms", false, 0},
	{"signature.app_ms", "ms", false, 0},
	{"signature.infra_ms", "ms", false, 0},
	{"signature.stability_ms", "ms", false, 0},
	{"signature.occurrences", "count", false, 0},
	{"signature.occurrences_sharded_serial_ms", "ms", false, 0},
	{"signature.occurrences_sharded_parallel_ms", "ms", false, 0},
	// internal/core/diff and diagnose.
	{"diff.compare_ms", "ms", false, 0},
	{"diff.changes", "count", false, 0},
	{"diagnose.ms", "ms", false, 0},
	{"diagnose.votes", "count", false, 0},
	// internal/parallel.
	{"parallel.queue_wait_ms", "ms", false, 0},
	{"parallel.active_max", "count", false, 0},
	// Reads beside writes (read_p95_ms of the issue; a layer metric
	// because only one workload has it).
	{"read.op_p95_ms", "ms", false, 0},
	// Runtime and harness.
	{"runtime.gc_pause_ms", "ms", false, 0},
	{"runtime.num_gc", "count", false, 0},
	{"runtime.heap_peak_mb", "MiB", false, 0},
	{"trace.overhead_share", "share", false, 0},
	{"harness.failed_share", "share", false, 0},
}

// metricSet collects values against a list of defs, so a run reports
// every declared name and nothing else.
type metricSet struct {
	defs []def
	vals map[string]float64
}

func newMetricSet(defs []def) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("flowbench: undeclared metric " + name)
}

func (m *metricSet) metrics() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metric{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
