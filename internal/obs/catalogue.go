package obs

// metricDoc is one row of the metrics catalogue: a series /metrics serves,
// each a run-report field (ReportPoints), with the type and label names it
// is served under, the backends that serve it and what it counts.
type metricDoc struct{ Name, Type, Labels, Backends, Meaning string }

// Catalogue documents every metric the repo emits. README's metrics
// catalogue is generated from it and cmd/wansim's TestSmoke holds it
// against the names its sim and live runs emit, in both
// directions (`go test ./cmd/wansim -run 'TestSmoke/metrics_catalogue'
// -update` rewrites the README rows): a new metric gets its row here.
var Catalogue = []metricDoc{
	{"report_task_attempts", "gauge", "—", "both", "the run report's `task_attempts`: task attempts started"},
	{"report_retries", "gauge", "—", "both", "the run report's `retries`: attempts beyond each task's first"},
	{"report_stages_done", "gauge", "—", "both", "stages in the run report's `stages` section: stages completed"},
	{"report_stage_duration_sec", "gauge", "`stage`", "both", "each completed stage's window length"},
	{"report_bytes_total", "gauge", "—", "both", "the run report's `bytes_total`: bytes moved (cross-DC in sim, socket wire bytes in live)"},
	{"report_bytes_raw", "gauge", "—", "both", "the run report's `bytes_raw`: uncompressed-equivalent bytes (0 in sim)"},
	{"report_traffic_bytes", "gauge", "`class`", "both", "the run report's `traffic_by_class`"},
	{"report_storage_resident_bytes", "gauge", "—", "live", "block-store bytes resident in memory, summed over workers"},
	{"report_storage_resident_outputs", "gauge", "—", "live", "map outputs resident in memory"},
	{"report_storage_spilled_bytes", "gauge", "—", "live", "block-store bytes on disk now, under `-memory-budget`"},
	{"report_storage_spilled_outputs", "gauge", "—", "live", "map outputs on disk now"},
	{"report_storage_spilled_bytes_total", "gauge", "—", "live", "bytes written to spill files over the run"},
	{"report_storage_spill_events", "gauge", "—", "live", "spill files written over the run"},
	{"report_storage_reload_bytes_total", "gauge", "—", "live", "spilled bytes read back over the run"},
	{"report_link_throughput_bps", "gauge", "`src`, `dst`", "both", "the network section's EWMA link throughput per site pair (`internal/netobs`)"},
	{"report_link_samples", "gauge", "`src`, `dst`", "both", "transfer samples folded into each pair's estimate"},
}
