package bench

import (
	"strings"
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/workloads"
)

// testOpts keeps the integration sweeps fast: 3 runs at reduced modeled
// scale, with output validation on.
func testOpts() Options {
	return Options{Runs: 3, BaseSeed: 1, Scale: 0.25, Validate: true}
}

// TestFig7Shapes verifies the paper's headline JCT orderings on a reduced
// sweep: AggShuffle beats the Spark baseline on every workload, beats
// Centralized on every workload except (at most marginally) TeraSort, and
// shows the smallest run-to-run spread.
func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	series, err := Fig7(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.All() {
		spark, _ := Find(series, w.Name, core.SchemeSpark)
		cent, _ := Find(series, w.Name, core.SchemeCentralized)
		agg, _ := Find(series, w.Name, core.SchemeAggShuffle)
		if agg.JCT.TrimmedMean >= spark.JCT.TrimmedMean {
			t.Errorf("%s: AggShuffle %.1fs not below Spark %.1fs", w.Name, agg.JCT.TrimmedMean, spark.JCT.TrimmedMean)
		}
		// Paper Fig. 7: Centralized beats AggShuffle nowhere; on TeraSort
		// it comes within ~4%, so allow a small margin there.
		limit := cent.JCT.TrimmedMean * 1.02
		if w.Name == "TeraSort" {
			limit = cent.JCT.TrimmedMean * 1.10
		}
		if agg.JCT.TrimmedMean > limit {
			t.Errorf("%s: AggShuffle %.1fs above Centralized %.1fs", w.Name, agg.JCT.TrimmedMean, cent.JCT.TrimmedMean)
		}
		red, err := reduction(series, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if red < 0.10 || red > 0.80 {
			t.Errorf("%s: reduction %.0f%% outside the paper's 14-73%% band (with slack)", w.Name, red*100)
		}
	}
}

// TestFig7StabilityClaim verifies Sec. V-B's variance finding: AggShuffle's
// interquartile range is tighter than the Spark baseline's on the jittery
// WAN, for the most network-bound workload.
func TestFig7StabilityClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	opts := testOpts()
	opts.Runs = 5
	series, err := Sweep([]*workloads.Workload{workloads.TeraSort()}, Schemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	spark, _ := Find(series, "TeraSort", core.SchemeSpark)
	agg, _ := Find(series, "TeraSort", core.SchemeAggShuffle)
	sparkIQR := spark.JCT.Q3 - spark.JCT.Q1
	aggIQR := agg.JCT.Q3 - agg.JCT.Q1
	if aggIQR >= sparkIQR {
		t.Errorf("AggShuffle IQR %.1fs not tighter than Spark %.1fs", aggIQR, sparkIQR)
	}
}

// TestFig8Shapes verifies the traffic results of the Fig. 8 workloads in
// the Fig. 7 sweep: reductions inside the paper's 16-90% band, PageRank's
// the largest, and TeraSort the only workload where Centralized ships the
// fewest bytes.
func TestFig8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	series, err := Fig7(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reductions := map[string]float64{}
	for _, w := range workloads.All() {
		if !w.InFig8 {
			continue
		}
		spark, _ := Find(series, w.Name, core.SchemeSpark)
		cent, _ := Find(series, w.Name, core.SchemeCentralized)
		agg, _ := Find(series, w.Name, core.SchemeAggShuffle)
		red := 1 - agg.CrossDCMB.TrimmedMean/spark.CrossDCMB.TrimmedMean
		reductions[w.Name] = red
		if red < 0.10 || red > 0.95 {
			t.Errorf("%s: traffic reduction %.0f%% outside the paper's 16-90%% band (with slack)", w.Name, red*100)
		}
		centLowest := cent.CrossDCMB.TrimmedMean < agg.CrossDCMB.TrimmedMean &&
			cent.CrossDCMB.TrimmedMean < spark.CrossDCMB.TrimmedMean
		if w.Name == "TeraSort" && !centLowest {
			t.Errorf("TeraSort: Centralized not lowest (%v/%v/%v)",
				spark.CrossDCMB.TrimmedMean, cent.CrossDCMB.TrimmedMean, agg.CrossDCMB.TrimmedMean)
		}
	}
	for name, red := range reductions {
		if name != "PageRank" && red >= reductions["PageRank"] {
			t.Errorf("%s reduction %.0f%% >= PageRank's %.0f%%; paper: PageRank largest",
				name, red*100, reductions["PageRank"]*100)
		}
	}
}

// TestFig9StageSpans checks the stage-breakdown payload: every stage has a
// positive span and AggShuffle's late (result) stage is never slower than
// the baseline's.
func TestFig9StageSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	opts := testOpts()
	series, err := Sweep([]*workloads.Workload{workloads.WordCount()}, Schemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	spark, _ := Find(series, "WordCount", core.SchemeSpark)
	agg, _ := Find(series, "WordCount", core.SchemeAggShuffle)
	for _, s := range series {
		if len(s.stages) == 0 {
			t.Fatalf("%s/%v has no stage spans", s.Workload, s.Scheme)
		}
		for i, st := range s.stages {
			if st.TrimmedMean <= 0 {
				t.Fatalf("%s/%v stage %d span %v", s.Workload, s.Scheme, i, st.TrimmedMean)
			}
		}
	}
	sparkLast := spark.stages[len(spark.stages)-1].TrimmedMean
	aggLast := agg.stages[len(agg.stages)-1].TrimmedMean
	if aggLast > sparkLast {
		t.Errorf("AggShuffle late stage %.1fs slower than Spark %.1fs (paper: AggShuffle fast in late stages)", aggLast, sparkLast)
	}
}

func TestFig1Shape(t *testing.T) {
	fetch, push, err := Fig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if push.JCT >= fetch.JCT {
		t.Errorf("push JCT %.1f not below fetch %.1f", push.JCT, fetch.JCT)
	}
	if push.ReduceStart >= fetch.ReduceStart {
		t.Errorf("push reducers start at %.1f, fetch at %.1f; want earlier", push.ReduceStart, fetch.ReduceStart)
	}
	if !strings.Contains(push.Gantt, "P") {
		t.Error("push gantt missing push spans")
	}
	if !strings.Contains(fetch.Gantt, "F") {
		t.Error("fetch gantt missing fetch spans")
	}
	// Sec. II-B: proactive pushes keep the WAN busier before the reducers
	// start than the fetch-based barrier does.
	if push.WANUtilBeforeReduce <= fetch.WANUtilBeforeReduce {
		t.Errorf("push pre-reduce WAN utilization %.2f not above fetch %.2f",
			push.WANUtilBeforeReduce, fetch.WANUtilBeforeReduce)
	}
}

func TestFig2Shape(t *testing.T) {
	fetch, push, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if fetch.Penalty <= 0 || push.Penalty <= 0 {
		t.Fatalf("failures cost nothing: fetch %.1f push %.1f", fetch.Penalty, push.Penalty)
	}
	if push.Penalty >= fetch.Penalty {
		t.Errorf("push recovery penalty %.1fs not below fetch %.1fs", push.Penalty, fetch.Penalty)
	}
}

func TestFormatters(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	opts := testOpts()
	opts.Runs = 2
	series, err := Sweep(workloads.All(), Schemes(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig7":   FormatFig7(series),
		"fig8":   FormatFig8(series),
		"fig9":   FormatFig9(series),
		"table1": FormatTableI(),
		"topo":   FormatTopology(topology.SixRegionEC2()),
	} {
		if len(out) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
	}
	for _, w := range workloads.All() {
		if !strings.Contains(FormatTableI(), w.Name) {
			t.Errorf("Table I missing %s", w.Name)
		}
	}
	fetch, push, err := Fig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatFig1(fetch, push), "reducers start") {
		t.Error("Fig1 format missing reducer start")
	}
	f2a, f2b, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatFig2(f2a, f2b), "penalty") {
		t.Error("Fig2 format missing penalty")
	}
}

func TestRunOneValidates(t *testing.T) {
	opts := Options{Runs: 1, BaseSeed: 1, Scale: 0.1, Validate: true}
	rep, err := RunOne(workloads.Sort(), core.SchemeAggShuffle, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JCT <= 0 {
		t.Fatal("no JCT")
	}
}

func TestFindMissing(t *testing.T) {
	if _, err := Find(nil, "nope", core.SchemeSpark); err == nil {
		t.Fatal("Find on empty series succeeded")
	}
	if _, err := reduction(nil, "nope"); err == nil {
		t.Fatal("reduction on empty series succeeded")
	}
}
