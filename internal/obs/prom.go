package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition format (version 0.0.4) rendering of a run
// report and of the registry, so a running job can be scraped by any
// Prometheus-compatible collector. The encoding is deterministic:
// ReportPoints emits in field order, Snapshot orders metrics by name then
// canonical labels, label keys render sorted, and histogram
// buckets render in ascending edge order with cumulative counts ending at
// "+Inf" — the same edges the JSON export carries.

// PromContentType is the Content-Type a /metrics endpoint should serve.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapePromLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapePromLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabels renders a label set as {k="v",...} with keys sorted, plus
// optional pre-escaped extra pairs appended last (used for le="...").
// Empty labels with no extras render as the empty string.
func promLabels(labels map[string]string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+len(extra))
	for _, k := range keys {
		parts = append(parts, k+`="`+escapePromLabel(labels[k])+`"`)
	}
	parts = append(parts, extra...)
	return "{" + strings.Join(parts, ",") + "}"
}

// promValue formats a sample value the way Prometheus expects.
func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders metric points in the Prometheus text exposition
// format. Points must be grouped by name (the order ReportPoints and
// Registry.Snapshot return them in); a
// `# TYPE` line is emitted once per metric name. Histograms render
// cumulative `_bucket` series (ending at le="+Inf"), `_sum`, and `_count`.
func WriteProm(w io.Writer, points []MetricPoint) error {
	prev := ""
	for _, p := range points {
		if p.Name != prev {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Type); err != nil {
				return err
			}
			prev = p.Name
		}
		switch p.Type {
		case "histogram":
			cum := 0
			for _, b := range p.Buckets {
				cum += b.Count
				le := `le="` + escapePromLabel(b.Le) + `"`
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", p.Name, promLabels(p.Labels, le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, promLabels(p.Labels), promValue(p.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, promLabels(p.Labels), p.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, promLabels(p.Labels), promValue(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReportPoints renders a run report as gauges named report_<field>, in a
// fixed order grouped by name, so /metrics serves the same facts /report
// does and the two cannot disagree. A nil report renders nothing.
func ReportPoints(r *Report) []MetricPoint {
	if r == nil {
		return nil
	}
	var out []MetricPoint
	gauge := func(name string, v float64, labels map[string]string) {
		out = append(out, MetricPoint{Name: name, Type: "gauge", Labels: labels, Value: v})
	}
	gauge("report_task_attempts", float64(r.TaskAttempts), nil)
	gauge("report_retries", float64(r.Retries), nil)
	gauge("report_stages_done", float64(len(r.Stages)), nil)
	for _, st := range r.Stages {
		gauge("report_stage_duration_sec", st.End-st.Start, map[string]string{"stage": st.Name})
	}
	gauge("report_bytes_total", r.BytesTotal, nil)
	gauge("report_bytes_raw", r.BytesRaw, nil)
	classes := make([]string, 0, len(r.TrafficByClass))
	for class := range r.TrafficByClass {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		gauge("report_traffic_bytes", r.TrafficByClass[class], map[string]string{"class": class})
	}
	if st := r.Storage; st != nil {
		gauge("report_storage_resident_bytes", st.ResidentBytes, nil)
		gauge("report_storage_resident_outputs", float64(st.ResidentOutputs), nil)
		gauge("report_storage_spilled_bytes", st.SpilledBytes, nil)
		gauge("report_storage_spilled_outputs", float64(st.SpilledOutputs), nil)
		gauge("report_storage_spilled_bytes_total", st.SpilledBytesTotal, nil)
		gauge("report_storage_spill_events", float64(st.SpillEvents), nil)
		gauge("report_storage_reload_bytes_total", st.ReloadBytesTotal, nil)
	}
	if r.Network != nil {
		for _, l := range r.Network.Links {
			gauge("report_link_throughput_bps", l.ThroughputBps, map[string]string{"src": l.Src, "dst": l.Dst})
		}
		for _, l := range r.Network.Links {
			gauge("report_link_samples", float64(l.Samples), map[string]string{"src": l.Src, "dst": l.Dst})
		}
	}
	return out
}
