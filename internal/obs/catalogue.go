package obs

// MetricDoc is one row of the metrics catalogue: a metric some part of the
// repo emits through a Registry, with the type and label names it is
// emitted under, the backends that emit it and what it counts.
type MetricDoc struct{ Name, Type, Labels, Backends, Meaning string }

// Catalogue documents every metric the repo emits. README's metrics
// catalogue is generated from it and cmd/wansim's TestSmoke holds it
// against the names its sim, live and -serve runs emit, in both
// directions (`go test ./cmd/wansim -run 'TestSmoke/metrics_catalogue'
// -update` rewrites the README rows): a new metric gets its row here.
var Catalogue = []MetricDoc{
	{"tasks_total", "counter", "`phase`, `stage`", "both", "task lifecycle transitions (scheduled/started/finished/retried/failed)"},
	{"stages_total", "counter", "—", "both", "stages completed"},
	{"stage_duration_sec", "gauge", "`stage`", "both", "each stage's window length"},
	{"bytes_moved_total", "counter", "`class`", "both", "bytes moved per traffic class"},
	{"bytes_cross_dc_total", "counter", "`class`", "sim", "bytes crossing DC boundaries per class"},
	{"bytes_wire_total", "counter", "—", "live", "actual socket bytes (post-compression)"},
	{"bytes_raw_total", "counter", "—", "live", "uncompressed-equivalent bytes (wire + savings)"},
	{"push_chunks_total", "counter", "—", "live", "data chunks of pushes, exchanges that crossed a socket (a map output made on its aggregator installs directly), counted once the push succeeded"},
	{"fetch_chunks_total", "counter", "—", "live", "data chunks of fetches, exchanges that crossed a socket (a reducer reads what its own worker holds directly), counted once the fetch succeeded"},
	{"push_duplicates_total", "counter", "—", "live", "duplicate pushes dropped (retried attempts)"},
	{"bucket_builds_total", "counter", "—", "live", "deferred whole-output bucketing passes"},
	{"heartbeats_total", "counter", "`worker`", "live", "ticker beats the driver merged (the end-of-job flush is not one)"},
	{"blockstore_resident_bytes", "gauge", "`worker`", "live", "shuffle bytes resident in memory"},
	{"blockstore_spilled_bytes_total", "counter", "`worker`", "live", "bytes spilled to disk under `-memory-budget`"},
	{"blockstore_spill_events_total", "counter", "`worker`", "live", "spill events"},
	{"blockstore_reload_bytes_total", "counter", "`worker`", "live", "spilled bytes reloaded on demand"},
	{"link_throughput_bps", "gauge", "`src`, `dst`", "both", "EWMA link throughput estimate per site pair (`internal/netobs`)"},
	{"link_rtt_sec", "gauge", "`src`, `dst`", "sim", "EWMA round-trip-time estimate per site pair (modeled latency; nothing live measures a round trip)"},
	{"link_samples_total", "counter", "`src`, `dst`", "both", "transfer samples folded into each pair's estimate"},
	{"placement_decisions_total", "counter", "`policy`, `source`", "both", "aggregator placement decisions, by policy and bandwidth source (`measured`/`configured`/`uniform`/`none`)"},
	{"placement_chosen_site", "gauge", "`shuffle`", "both", "site index chosen as each shuffle's aggregator"},
	{"placement_candidate_cost_sec", "gauge", "`shuffle`, `site`", "both", "estimated bottleneck transfer time of each candidate site"},
	{"jobs_submitted_total", "counter", "`tenant`", "both", "job submissions received (admitted or rejected)"},
	{"jobs_admitted_total", "counter", "`tenant`", "both", "jobs dispatched out of the queue"},
	{"jobs_rejected_total", "counter", "`tenant`, `reason`", "both", "submissions shed at admission (`queue_full` / `memory` / `closed`)"},
	{"jobs_done_total", "counter", "`tenant`", "both", "jobs that finished successfully"},
	{"jobs_failed_total", "counter", "`tenant`", "both", "jobs that finished with a non-cancellation error"},
	{"jobs_canceled_total", "counter", "`tenant`", "both", "jobs canceled (explicitly, by deadline, or at shutdown)"},
	{"jobs_queue_depth", "gauge", "—", "both", "jobs currently queued"},
	{"jobs_queue_wait_sec", "histogram", "—", "both", "time from submission to dispatch"},
	{"jobs_run_sec", "histogram", "—", "both", "running-state duration of dispatched jobs"},
}
