package perf

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"wanshuffle/internal/rdd"
)

func sortPairs(recs []rdd.Pair) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
}

// testOptions shrinks a workload to 1/50 with two timed jobs.
func testOptions(t *testing.T, trace bool) Options {
	return Options{Seed: 1, Seconds: 1, Trace: trace, Scale: 0.02, Jobs: 2, OutDir: t.TempDir()}
}

func TestEveryWorkloadAtSmallScale(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, spans, err := Run(w.Name, testOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if spans != nil {
				t.Errorf("untraced run recorded %d spans", len(spans))
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("failed %d of %d, correct %v, errors %v, checks %+v", res.Failed, res.Attempted, res.Correct, res.Errors, res.Checks)
			}
			if res.TimedJobs != 2 {
				t.Errorf("timed jobs = %d, want 2", res.TimedJobs)
			}
			if len(res.Metrics) != len(EndToEnd) {
				t.Errorf("got %d metrics, want the %d end-to-end ones", len(res.Metrics), len(EndToEnd))
			}
			for _, m := range EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]Value
			}
			if err := json.Unmarshal([]byte(res.DriverLine()), &line); err != nil {
				t.Fatalf("driver line: %v", err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(EndToEnd) {
				t.Errorf("driver line %+v does not match the result", line)
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{SortPushWAN, SortPushSpill, SimFig7} {
		name := name
		t.Run(name, func(t *testing.T) {
			res, spans, err := Run(name, testOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Fatalf("failed %d of %d, errors %v, checks %+v", res.Failed, res.Attempted, res.Errors, res.Checks)
			}
			if len(res.Metrics) != len(PerLayer) {
				t.Errorf("got %d metrics, want the %d per-layer ones", len(res.Metrics), len(PerLayer))
			}
			for _, m := range PerLayer {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v)", m.Name, v, ok)
				}
			}
			// Layer probes are the same code on every workload and never 0.
			for _, probe := range []string{"rdd.bucket_hash_ns_per_record", "blockstore.spill.reload_ns_per_record",
				"simnet.flow_us.c64", "livecluster.flate.wire_ratio", "jobs.dispatch_us_per_job", "obs.snapshot_ms"} {
				if res.Metrics[probe].Value <= 0 {
					t.Errorf("probe %s = %v, want > 0", probe, res.Metrics[probe].Value)
				}
			}
			switch name {
			case SortPushWAN:
				for _, m := range []string{"plan.predicted_transfer_s", "plan.task_s_p99", "trace.cp_transfer_share", "livecluster.bytes_per_request"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s = %v on %s, want > 0", m, res.Metrics[m].Value, name)
					}
				}
			case SortPushSpill:
				if res.Metrics["blockstore.spill.events_per_job"].Value <= 0 {
					t.Error("the spill workload reported no spill events")
				}
			case SimFig7:
				if res.Metrics["exec.task_attempts"].Value <= 0 || res.Metrics["livecluster.wire_bytes_per_job"].Value != 0 {
					t.Errorf("sim run: attempts %v, live wire bytes %v", res.Metrics["exec.task_attempts"], res.Metrics["livecluster.wire_bytes_per_job"])
				}
			}
			if len(spans) == 0 || spans[0].Name != "run" {
				t.Fatalf("traced run has no root span: %d spans", len(spans))
			}
			if err := CheckNesting(spans); err != nil {
				t.Error(err)
			}
			seen := map[string]bool{}
			for _, s := range spans {
				seen[s.Name] = true
				if s.Run == "" {
					t.Fatalf("span %d has no run id", s.ID)
				}
			}
			want := []string{"setup", "job[0]", "verify", "probe rdd"}
			if name != SimFig7 {
				want = append(want, "generate", "reference", "cluster_new", "cluster_run")
			}
			for _, n := range want {
				if !seen[n] {
					t.Errorf("no %q span", n)
				}
			}
		})
	}
}

func TestSimReproducedBlockRepeats(t *testing.T) {
	a, _, err := Run(SimFig7, testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(SimFig7, testOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Reproduced)
	jb, _ := json.Marshal(b.Reproduced)
	if string(ja) != string(jb) || len(a.Reproduced) == 0 {
		t.Errorf("reproduced blocks differ for one seed:\n%s\n%s", ja, jb)
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if a, b := Checksum(SortRecords(7, 5000)), Checksum(SortRecords(7, 5000)); a != b {
		t.Errorf("same seed, different sort records: %x vs %x", a, b)
	}
	if a, b := Checksum(SortRecords(7, 5000)), Checksum(SortRecords(8, 5000)); a == b {
		t.Errorf("different seeds, same sort records: %x", a)
	}
	if a, b := Checksum(WordCountLines(7, 2000)), Checksum(WordCountLines(7, 2000)); a != b {
		t.Errorf("same seed, different lines: %x vs %x", a, b)
	}
	if a, b := Checksum(WordCountLines(7, 2000)), Checksum(WordCountLines(8, 2000)); a == b {
		t.Errorf("different seeds, same lines: %x", a)
	}
	recs := SortRecords(3, 100)
	if len(recs[0].Key) != 10 || len(recs[0].Value.(string)) != 52 {
		t.Errorf("sort record shape: key %q value %q", recs[0].Key, recs[0].Value)
	}
	// The checksum ignores order but not content.
	swapped := append([]rdd.Pair(nil), recs...)
	swapped[0], swapped[99] = swapped[99], swapped[0]
	if Checksum(swapped) != Checksum(recs) {
		t.Error("checksum depends on record order")
	}
	swapped[0].Key = "0000000000"
	if Checksum(swapped) == Checksum(recs) {
		t.Error("checksum missed a changed key")
	}
}

func TestVerifiersRejectWrongOutput(t *testing.T) {
	recs := SortRecords(1, 200)
	sum := Checksum(recs)
	if err := verifySorted(recs, len(recs), sum); err == nil {
		t.Error("unsorted output passed")
	}
	sorted := append([]rdd.Pair(nil), recs...)
	sortPairs(sorted)
	if err := verifySorted(sorted, len(recs), sum); err != nil {
		t.Errorf("sorted output rejected: %v", err)
	}
	if err := verifySorted(sorted[1:], len(recs), sum); err == nil {
		t.Error("short output passed")
	}
	dup := append([]rdd.Pair(nil), sorted...)
	dup[1] = dup[0]
	if err := verifySorted(dup, len(recs), sum); err == nil {
		t.Error("output with a duplicated record passed")
	}
	want := map[string]int{"a": 2, "b": 1}
	if err := verifyCounts([]rdd.Pair{{Key: "a", Value: 2}, {Key: "b", Value: 1}}, want); err != nil {
		t.Error(err)
	}
	if err := verifyCounts([]rdd.Pair{{Key: "a", Value: 2}, {Key: "b", Value: 2}}, want); err == nil {
		t.Error("wrong count passed")
	}
	if err := verifyCounts([]rdd.Pair{{Key: "a", Value: 2}}, want); err == nil {
		t.Error("missing word passed")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6}, // overlaps a by 1
		{ID: 4, Parent: 2, Name: "a1", Start: 1, End: 2},
		{ID: 5, Parent: 1, Name: "c", Start: 8, End: 9},
	}
	FillSelfTimes(spans)
	want := map[int]float64{1: 10 - (3 + 2 + 1), 2: 2, 3: 3, 4: 1, 5: 1}
	for _, s := range spans {
		if math.Abs(s.Self-want[s.ID]) > 1e-12 {
			t.Errorf("span %d %q self = %v, want %v", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	if err := CheckNesting(spans); err != nil {
		t.Errorf("well-nested spans rejected: %v", err)
	}
	escaped := append([]Span(nil), spans...)
	escaped[3].End = 5 // a1 now ends after its parent a
	FillSelfTimes(escaped)
	if err := CheckNesting(escaped); err == nil {
		t.Error("a child that outlives its parent passed")
	}
	var nilRec *Recorder
	nilRec.Do(0, "x", func(id int) {
		if id != 0 {
			t.Error("nil recorder handed out a span id")
		}
	})
	if nilRec.Finish() != nil {
		t.Error("nil recorder returned spans")
	}
	rec := NewRecorder("r")
	rec.Do(0, "outer", func(id int) { rec.Do(id, "inner", func(int) {}) })
	got := rec.Finish()
	if len(got) != 2 || got[1].Parent != got[0].ID || CheckNesting(got) != nil {
		t.Errorf("recorded spans %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = Quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles = %v %v %v, want 10 20 40", q1, q2, q3)
	}
	if got := Spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 || Percentile(nil, 50) != 0 {
		t.Error("median / empty percentile")
	}
}

// summaryOf builds a one-workload summary from raw values per metric.
func summaryOf(values map[string][]float64) *Summary {
	ws := WorkloadSummary{EndToEnd: map[string]Dist{}}
	for name, v := range values {
		m, _ := FindMetric(name)
		ws.EndToEnd[name] = newDist(m.Unit, v)
	}
	return &Summary{Schema: SummarySchema, Workloads: map[string]WorkloadSummary{SortPush: ws}}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(x float64) []float64 { return []float64{x * 0.99, x, x, x, x * 1.01} }
	base := summaryOf(map[string][]float64{
		"job_s_p50": steady(1), "allocs_per_record": steady(8), "wire_bytes_per_record": steady(150), "setup_s": steady(0.04),
	})
	verdict := func(rows []Row, metric string) Verdict {
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		t.Fatalf("no row for %s", metric)
		return ""
	}
	// Within bound: 10% slower against a 25% bound, 2% fewer allocations.
	rows := Compare(base, summaryOf(map[string][]float64{
		"job_s_p50": steady(1.1), "allocs_per_record": steady(7.84), "wire_bytes_per_record": steady(150), "setup_s": steady(0.04),
	}))
	if !AllOK(rows) || len(rows) != 4 {
		t.Errorf("within-bound comparison not all ok: %+v", rows)
	}
	// Beyond bound: 30% slower, 5% more wire bytes against a 4% bound.
	rows = Compare(base, summaryOf(map[string][]float64{
		"job_s_p50": steady(1.3), "allocs_per_record": steady(8), "wire_bytes_per_record": steady(157.5), "setup_s": steady(0.04),
	}))
	if verdict(rows, "job_s_p50") != Regressed || verdict(rows, "wire_bytes_per_record") != Regressed || verdict(rows, "allocs_per_record") != OK {
		t.Errorf("beyond-bound verdicts: %+v", rows)
	}
	if AllOK(rows) {
		t.Error("a regressed comparison counted as all ok")
	}
	for _, r := range rows {
		if r.Metric == "job_s_p50" && (math.Abs(r.Ratio-1.3) > 1e-9 || math.Abs(r.Worse-0.3) > 1e-9 || r.Base != 1) {
			t.Errorf("job_s_p50 row = %+v", r)
		}
	}
	// Unresolved: the runs of one side spread wider than the bound, so an
	// unchanged median proves nothing.
	rows = Compare(base, summaryOf(map[string][]float64{
		"job_s_p50": {0.7, 0.8, 1, 1.2, 1.4}, "allocs_per_record": steady(8), "wire_bytes_per_record": steady(150),
		"setup_s": {0.02, 0.03, 0.04, 0.05, 0.06},
	}))
	if verdict(rows, "job_s_p50") != Unresolved {
		t.Errorf("wide spread not unresolved: %+v", rows)
	}
	if verdict(rows, "setup_s") != OK {
		t.Errorf("setup_s is judged on medians alone: %+v", rows)
	}
	// A better metric never regresses, whichever its direction.
	if verdictFor(-0.5, 0.1) != OK {
		t.Error("an improvement counted as a regression")
	}
}

func TestSummarizeFoldsRuns(t *testing.T) {
	run := func(v float64, traced bool) *Result {
		r := &Result{Workload: SortPush, Traced: traced, Attempted: 3, TimedJobs: 2, Metrics: map[string]Value{}}
		if traced {
			r.Metrics["plan.task_s_p50"] = Value{v, "s"}
		} else {
			r.Metrics["job_s_p50"] = Value{v, "s"}
		}
		return r
	}
	s := Summarize([]*Result{run(1, false), run(3, false), run(2, false), run(9, true)}, 1, 3, 10)
	ws := s.Workloads[SortPush]
	if ws.Runs != 3 || ws.Attempted != 12 || ws.EndToEnd["job_s_p50"].Median != 2 || ws.PerLayer["plan.task_s_p50"].Value != 9 {
		t.Errorf("summary = %+v", ws)
	}
}

// TestBenchmarkJSONMirrorsSpec keeps the driver's contract file and the
// tables in this package from drifting apart.
func TestBenchmarkJSONMirrorsSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []WorkloadInfo `json:"workloads"`
		EndToEnd   []Metric       `json:"end_to_end"`
		PerLayer   []Metric       `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(Workloads) || len(file.EndToEnd) != len(EndToEnd) || len(file.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the package %d, %d and %d",
			len(file.Workloads), len(file.EndToEnd), len(file.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range Workloads {
		if file.Workloads[i] != w {
			t.Errorf("workload %d: file %+v, package %+v", i, file.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for i, m := range EndToEnd {
		if file.EndToEnd[i] != m {
			t.Errorf("end-to-end %d: file %+v, package %+v", i, file.EndToEnd[i], m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range PerLayer {
		if file.PerLayer[i] != m {
			t.Errorf("per-layer %d: file %+v, package %+v", i, file.PerLayer[i], m)
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "perf" || file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", file.Paths, file.RunSeconds, file.Command)
	}
}

// BenchmarkLayerProbes runs the fixed-input layer probes once per
// iteration and reports each as a benchmark metric, so
// `go test -bench . -benchtime 1x` gives the traced run's probe numbers
// through the standard tool.
func BenchmarkLayerProbes(b *testing.B) {
	o := Options{Seed: 1, OutDir: b.TempDir()}
	var res *Result
	for i := 0; i < b.N; i++ {
		res = newResult("probes", o)
		layerProbes(res, nil, 0, o)
	}
	for _, name := range sortedKeys(res.Metrics) {
		b.ReportMetric(res.Metrics[name].Value, name+"_"+res.Metrics[name].Unit)
	}
}

// BenchmarkVariantProbes does the same for the data-plane variants of the
// probe sort job.
func BenchmarkVariantProbes(b *testing.B) {
	o := Options{Seed: 1, OutDir: b.TempDir()}
	var res *Result
	for i := 0; i < b.N; i++ {
		res = newResult("variants", o)
		if err := variantProbes(res, nil, 0, o); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		b.ReportMetric(res.Metrics[name].Value, name+"_"+res.Metrics[name].Unit)
	}
}

func TestReferenceKernel(t *testing.T) {
	a, b := newRefState(1), newRefState(1)
	if a.run() != b.run() {
		t.Error("the reference kernel is not a fixed computation")
	}
	if n := testing.AllocsPerRun(3, func() { a.run() }); n != 0 {
		t.Errorf("the reference kernel allocates %v times a run", n)
	}
	if speedFactor(nominalRefSec, nominalRefSec) != 1 {
		t.Error("a machine at nominal speed needs no correction")
	}
	// A machine at half speed takes twice as long over kernel and job
	// alike: the corrected job time must not move.
	fast := setupPhase{secs: []float64{2, 2.2, 1.8}, refs: []float64{0.002, 0.0021, 0.0019, 0.002}}
	slow := setupPhase{secs: []float64{4, 4.4, 3.6}, refs: []float64{0.004, 0.0042, 0.0038, 0.004}}
	if math.Abs(fast.corrected()-slow.corrected()) > 1e-12 {
		t.Errorf("corrected times differ: %v vs %v", fast.corrected(), slow.corrected())
	}
	if speedFactor(0, 0) != 1 || speedFactor() != 1 {
		t.Error("no kernel time must mean no correction")
	}
	if sec := newRefTimer(2).sample(); sec <= 0 {
		t.Errorf("kernel sample = %v", sec)
	}
}
