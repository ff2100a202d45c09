package bench

import (
	"fmt"
	"strings"

	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

// paperRows calls row for each Table I workload the sweep covers, with its
// series under Schemes(), in that order.
func paperRows(series []Series, row func(w *workloads.Workload, spark, cent, agg Series)) {
	for _, w := range workloads.All() {
		var cells []Series
		for _, scheme := range Schemes() {
			if s, err := Find(series, w.Name, scheme); err == nil {
				cells = append(cells, s)
			}
		}
		if len(cells) == 3 {
			row(w, cells[0], cells[1], cells[2])
		}
	}
}

// FormatFig7 renders the Fig. 7 table: 10% trimmed mean job completion
// time with median and interquartile range, per workload and scheme.
func FormatFig7(series []Series) string {
	var b strings.Builder
	b.WriteString("Fig. 7 — Average job completion time (s), 10% trimmed mean [median, Q1–Q3]\n")
	fmt.Fprintf(&b, "%-12s %28s %28s %28s %12s\n", "Workload", "Spark", "Centralized", "AggShuffle", "Agg vs Spark")
	paperRows(series, func(w *workloads.Workload, spark, cent, agg Series) {
		fmt.Fprintf(&b, "%-12s", w.Name)
		for _, s := range []Series{spark, cent, agg} {
			fmt.Fprintf(&b, " %9.1f [%6.1f, %6.1f–%6.1f]", s.JCT.TrimmedMean, s.JCT.Median, s.JCT.Q1, s.JCT.Q3)
		}
		if red, err := Reduction(series, w.Name); err == nil {
			fmt.Fprintf(&b, "      -%4.0f%%", red*100)
		}
		b.WriteString("\n")
	})
	return b.String()
}

// FormatFig8 renders the Fig. 8 table: cross-datacenter traffic in MB per
// workload and scheme.
func FormatFig8(series []Series) string {
	var b strings.Builder
	b.WriteString("Fig. 8 — Cross-datacenter traffic (MB), mean over runs\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %14s\n", "Workload", "Spark", "Centralized", "AggShuffle", "Agg vs Spark")
	paperRows(series, func(w *workloads.Workload, spark, cent, agg Series) {
		if !w.InFig8 {
			return
		}
		red := 0.0
		if spark.CrossDCMB.TrimmedMean > 0 {
			red = (1 - agg.CrossDCMB.TrimmedMean/spark.CrossDCMB.TrimmedMean) * 100
		}
		fmt.Fprintf(&b, "%-12s %12.0f %12.0f %12.0f %13.1f%%\n",
			w.Name, spark.CrossDCMB.TrimmedMean, cent.CrossDCMB.TrimmedMean, agg.CrossDCMB.TrimmedMean, red)
	})
	return b.String()
}

// FormatFig9 renders the Fig. 9 stacked-bar data: per-stage execution time
// per workload and scheme.
func FormatFig9(series []Series) string {
	var b strings.Builder
	b.WriteString("Fig. 9 — Stage execution time breakdown (s), trimmed mean per stage [Q1–Q3]\n")
	paperRows(series, func(w *workloads.Workload, spark, cent, agg Series) {
		fmt.Fprintf(&b, "%s:\n", w.Name)
		for _, s := range []Series{spark, cent, agg} {
			fmt.Fprintf(&b, "  %-12s", s.Scheme)
			var total float64
			for i, st := range s.Stages {
				fmt.Fprintf(&b, " | s%d %6.1f [%5.1f–%5.1f]", i, st.TrimmedMean, st.Q1, st.Q3)
				total += st.TrimmedMean
			}
			fmt.Fprintf(&b, " | Σ %.1f\n", total)
		}
	})
	return b.String()
}

// FormatTableI renders the workload specification table.
func FormatTableI() string {
	var b strings.Builder
	b.WriteString("Table I — Workload specifications (HiBench, \"large scale\")\n")
	for _, w := range workloads.All() {
		fmt.Fprintf(&b, "  %-12s %s\n", w.Name, w.TableI)
	}
	b.WriteString("  Parallelism of both map and reduce: 8 (8 cores per datacenter)\n")
	return b.String()
}

// FormatTopology renders the Fig. 6 cluster description.
func FormatTopology(topo *topology.Topology) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — Evaluation cluster\n")
	for _, dc := range topo.DCs {
		workers := topo.HostsIn(dc.ID)
		aux := len(dc.Hosts) - len(workers)
		extra := ""
		if aux > 0 {
			extra = fmt.Sprintf(" (+%d dedicated: master, namenode)", aux)
		}
		fmt.Fprintf(&b, "  %-16s %d workers × %d cores%s\n", dc.Name, len(workers), topo.Host(workers[0]).Cores, extra)
	}
	b.WriteString("  Inter-region base capacity (Mbps):\n")
	names := topo.DCNames()
	fmt.Fprintf(&b, "  %16s", "")
	for _, n := range names {
		fmt.Fprintf(&b, " %14s", n)
	}
	b.WriteString("\n")
	for i := 0; i < topo.NumDCs(); i++ {
		fmt.Fprintf(&b, "  %16s", names[i])
		for j := 0; j < topo.NumDCs(); j++ {
			if i == j {
				fmt.Fprintf(&b, " %14s", "-")
				continue
			}
			fmt.Fprintf(&b, " %14.0f", topo.InterBps(topology.DCID(i), topology.DCID(j))/topology.Mbps)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFig1 renders the Fig. 1 comparison.
func FormatFig1(fetch, push *MicroResult) string {
	var b strings.Builder
	b.WriteString("Fig. 1 — Fetch-based vs proactive push (2-DC micro-scenario)\n\n")
	for _, r := range []*MicroResult{fetch, push} {
		fmt.Fprintf(&b, "[%s] reducers start: %.1fs   JCT: %.1fs   cross-DC: %.0f MB   WAN utilization before reduce: %.0f%%\n%s\n",
			r.Mode, r.ReduceStart, r.JCT, r.CrossDCMB, r.WANUtilBeforeReduce*100, r.Gantt)
	}
	fmt.Fprintf(&b, "Push lets reducers start %.1fs earlier (%.0f%%).\n",
		fetch.ReduceStart-push.ReduceStart,
		(1-push.ReduceStart/fetch.ReduceStart)*100)
	return b.String()
}

// FormatFig2 renders the Fig. 2 comparison.
func FormatFig2(fetch, push *Fig2Result) string {
	var b strings.Builder
	b.WriteString("Fig. 2 — Reducer-failure recovery (2-DC micro-scenario)\n\n")
	fmt.Fprintf(&b, "[fetch] clean JCT %.1fs → failed JCT %.1fs (penalty %.1fs; re-fetch crosses DCs)\n%s\n",
		fetch.Clean.JCT, fetch.Failed.JCT, fetch.Penalty, fetch.Failed.Gantt)
	fmt.Fprintf(&b, "[push]  clean JCT %.1fs → failed JCT %.1fs (penalty %.1fs; retry reads locally)\n%s\n",
		push.Clean.JCT, push.Failed.JCT, push.Penalty, push.Failed.Gantt)
	fmt.Fprintf(&b, "Push cuts the recovery penalty by %.0f%%.\n", (1-push.Penalty/fetch.Penalty)*100)
	return b.String()
}
