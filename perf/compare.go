package perf

import (
	"fmt"
	"io"
	"math"
)

// SummarySchema versions the multi-run summary document (the shape of
// results/BENCH_<n>.json and of `wanperf all -out`).
const SummarySchema = "wanperf/summary/v1"

// Dist is one end-to-end metric over repeated runs.
type Dist struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func newDist(unit string, values []float64) Dist {
	q1, q2, q3 := Quartiles(values)
	return Dist{Unit: unit, Median: q2, Q1: q1, Q3: q3, Spread: Spread(values), Values: values}
}

// WorkloadSummary gathers one workload's runs.
type WorkloadSummary struct {
	Runs      int `json:"runs"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// FailedChecks names every precondition that failed in any run.
	FailedChecks []string        `json:"failed_checks,omitempty"`
	TimedJobs    []int           `json:"timed_jobs"`
	EndToEnd     map[string]Dist `json:"end_to_end"`
	// PerLayer comes from one traced run, when the set included one.
	PerLayer   map[string]Value   `json:"per_layer,omitempty"`
	Reproduced map[string]float64 `json:"reproduced,omitempty"`
}

// Summary is a set of runs of every workload on one commit.
type Summary struct {
	Schema    string                     `json:"schema"`
	Env       Env                        `json:"env"`
	Seed      int64                      `json:"seed"`
	Sets      int                        `json:"sets"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]WorkloadSummary `json:"workloads"`
	// AA is the verdict table of this summary against a second set of
	// runs of the same commit, and Notes whatever a reader of a committed
	// baseline must know (demoted metrics, known defects). Both are only
	// present in trajectory files.
	AA    []Row    `json:"aa,omitempty"`
	Notes []string `json:"notes,omitempty"`
}

// Summarize folds results (any mix of workloads, traced or not) into a
// summary.
func Summarize(results []*Result, seed int64, sets int, seconds float64) *Summary {
	s := &Summary{Schema: SummarySchema, Env: CurrentEnv(), Seed: seed, Sets: sets, Seconds: seconds,
		Workloads: map[string]WorkloadSummary{}}
	values := map[string]map[string][]float64{}
	for _, r := range results {
		ws := s.Workloads[r.Workload]
		ws.Attempted += r.Attempted
		ws.Failed += r.Failed
		for _, c := range r.Checks {
			if !c.OK && !c.Advisory {
				ws.FailedChecks = append(ws.FailedChecks, fmt.Sprintf("%s: %s", c.Name, c.Detail))
			}
		}
		if r.Traced {
			ws.PerLayer = r.Metrics
		} else {
			ws.Runs++
			ws.TimedJobs = append(ws.TimedJobs, r.TimedJobs)
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				values[r.Workload][name] = append(values[r.Workload][name], v.Value)
			}
		}
		if r.Reproduced != nil {
			ws.Reproduced = r.Reproduced
		}
		s.Workloads[r.Workload] = ws
	}
	for w, byMetric := range values {
		ws := s.Workloads[w]
		ws.EndToEnd = map[string]Dist{}
		for _, m := range EndToEnd {
			if vals, ok := byMetric[m.Name]; ok {
				ws.EndToEnd[m.Name] = newDist(m.Unit, vals)
			}
		}
		s.Workloads[w] = ws
	}
	return s
}

// Verdict is compare's judgement of one workload x metric pairing.
type Verdict string

// Verdicts.
const (
	OK         Verdict = "ok"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// Row is one line of a comparison: a workload x end-to-end metric with
// both medians, their ratio (new over base, the base being A) and the
// share by which the metric got worse in its own direction.
type Row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Base     float64 `json:"base"`
	New      float64 `json:"new"`
	Ratio    float64 `json:"ratio"`
	Worse    float64 `json:"worse"`
	Bound    float64 `json:"bound"`
	// Spread is the wider of the two sides' run-to-run spreads.
	Spread  float64 `json:"spread"`
	Verdict Verdict `json:"verdict"`
}

// Compare applies the per-metric bounds to two summaries, A the base. A
// pairing whose run-to-run spread is wider than its bound is unresolved,
// not unchanged; one that worsened by more than the bound is regressed.
func Compare(a, b *Summary) []Row {
	var rows []Row
	for _, w := range Workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range EndToEnd {
			da, okA := wa.EndToEnd[m.Name]
			db, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			row := Row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Base: da.Median, New: db.Median,
				Ratio: ratio(db.Median, da.Median), Bound: m.Bound, Spread: math.Max(da.Spread, db.Spread)}
			if da.Median != 0 {
				row.Worse = (db.Median - da.Median) / math.Abs(da.Median)
				if m.Better == Higher {
					row.Worse = -row.Worse
				}
			}
			switch {
			case m.Name == "setup_s":
				// Set-up is judged on medians alone: it is milliseconds
				// long, its spread says little, and the benchmark driver
				// exempts it from the spread rule too.
				row.Verdict = verdictFor(row.Worse, m.Bound)
			case row.Spread > m.Bound:
				row.Verdict = Unresolved
			default:
				row.Verdict = verdictFor(row.Worse, m.Bound)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func verdictFor(worse, bound float64) Verdict {
	if worse > bound {
		return Regressed
	}
	return OK
}

// AllOK reports whether every row's verdict is ok (and there are rows).
func AllOK(rows []Row) bool {
	for _, r := range rows {
		if r.Verdict != OK {
			return false
		}
	}
	return len(rows) > 0
}

// PrintRows renders the comparison, one row per workload x metric.
func PrintRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %-6s %8s %8s %7s %7s  %s\n",
		"workload", "metric", "base(A)", "new(B)", "unit", "B/A", "worse", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %-6s %8.4f %+7.2f%% %6.1f%% %6.2f%%  %s\n",
			r.Workload, r.Metric, r.Base, r.New, r.Unit, r.Ratio, 100*r.Worse, 100*r.Bound, 100*r.Spread, r.Verdict)
	}
}

// PrintSummary renders each end-to-end metric's median and quartiles.
func PrintSummary(w io.Writer, s *Summary) {
	fmt.Fprintf(w, "wanperf summary: seed %d, %d sets, %.0f s windows, go %s nproc %d GOMAXPROCS %d\n",
		s.Seed, s.Sets, s.Seconds, s.Env.GoVersion, s.Env.NumCPU, s.Env.GOMAXPROCS)
	for _, info := range Workloads {
		ws, ok := s.Workloads[info.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s: %d runs, %d jobs attempted, %d failed, timed jobs per run %v\n",
			info.Name, ws.Runs, ws.Attempted, ws.Failed, ws.TimedJobs)
		for _, c := range ws.FailedChecks {
			fmt.Fprintf(w, "  FAILED check %s\n", c)
		}
		for _, m := range EndToEnd {
			if d, ok := ws.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "  %-24s median %14.6g  q1 %14.6g  q3 %14.6g %-6s spread %5.2f%% (bound %.0f%%)\n",
					m.Name, d.Median, d.Q1, d.Q3, d.Unit, 100*d.Spread, 100*m.Bound)
			}
		}
	}
}
