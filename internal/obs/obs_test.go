package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"wanshuffle/internal/trace"
)

func TestCounterIdentityAndValue(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", Labels{"kind": "push", "site": "0"})
	// Same name + same labels (any map instance) → same counter.
	b := r.Counter("requests_total", Labels{"site": "0", "kind": "push"})
	if a != b {
		t.Fatal("identical (name, labels) returned distinct counters")
	}
	c := r.Counter("requests_total", Labels{"kind": "fetch", "site": "0"})
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(1)
	b.Add(4)
	a.Add(-7) // negative deltas are ignored: counters are monotonic
	if got := a.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	// Label sets whose unescaped k=v, renderings coincide are still two
	// counters, and both appear in the snapshot.
	r = NewRegistry()
	r.Counter("c", Labels{"a": "1,b=2"}).Add(1)
	r.Counter("c", Labels{"a": "1", "b": "2"}).Add(5)
	snap := r.Snapshot()
	got := map[string]float64{}
	for _, p := range snap {
		got[fmt.Sprint(p.Labels)] = p.Value
	}
	if want := map[string]float64{"map[a:1,b=2]": 1, "map[a:1 b:2]": 5}; len(snap) != 2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("snapshot = %+v, want counters 1 and 5 under their own labels", snap)
	}
	for i := 0; i < 20; i++ { // entries come out of a map in random order
		if again := r.Snapshot(); fmt.Sprint(again) != fmt.Sprint(snap) {
			t.Fatalf("snapshot order changed between calls: %+v then %+v", snap, again)
		}
	}
}

func TestGaugeSet(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", nil)
	g.Set(3)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_sec", []float64{1, 2}, nil)
	for _, x := range []float64{0.5, 1.5, 5} {
		h.Observe(x)
	}
	buckets, n, sum := h.snapshot()
	if n != 3 || sum != 7 {
		t.Fatalf("n = %d sum = %v, want 3, 7", n, sum)
	}
	counts := []int{buckets[0].Count, buckets[1].Count, buckets[2].Count}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("bucket counts = %v", counts)
	}
	if !math.IsInf(buckets[2].Le, 1) {
		t.Fatalf("last bucket edge = %v, want +Inf", buckets[2].Le)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter should panic")
		}
	}()
	r.Gauge("x", nil)
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", nil).Add(1)
	r.Counter("aaa", Labels{"b": "2"}).Add(2)
	r.Counter("aaa", Labels{"b": "1"}).Add(1)
	r.Gauge("mid", nil).Set(7)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	names := make([]string, len(s1))
	for i, p := range s1 {
		names[i] = p.Name
	}
	want := []string{"aaa", "aaa", "mid", "zzz"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", names, want)
		}
	}
	if s1[0].Labels["b"] != "1" || s1[1].Labels["b"] != "2" {
		t.Fatalf("label order within a name not sorted: %v", s1[:2])
	}
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if !bytes.Equal(j1, j2) {
		t.Fatal("snapshots of an unchanged registry differ")
	}
}

func TestHistogramJSONInfEdge(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1}, nil).Observe(2)
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"+Inf"`) {
		t.Fatalf("histogram JSON missing +Inf edge:\n%s", buf)
	}
	var pts []metricPoint
	if err := json.Unmarshal(buf, &pts); err != nil {
		t.Fatalf("registry JSON does not round-trip: %v", err)
	}
}

func TestNilMetricsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x", nil)
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil-registry counter retained a value")
	}
	g := r.Gauge("y", nil)
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil-registry gauge retained a value")
	}
	r.Histogram("z", []float64{1}, nil).Observe(1)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v", got)
	}
}

func TestCollectorRecordsAndMirrors(t *testing.T) {
	c := NewCollector()
	c.OnTask(TaskEvent{Phase: PhaseScheduled, Stage: 0, StageName: "s0", Part: 0, Site: -1})
	c.OnTask(TaskEvent{Phase: PhaseStarted, Stage: 0, StageName: "s0", Part: 0, Site: 2})
	c.OnTask(TaskEvent{Phase: PhaseFinished, Stage: 0, StageName: "s0", Part: 0, Site: 2, Time: 1.5})
	c.OnStage(StageEvent{ID: 0, Name: "s0", Start: 0, End: 1.5})
	c.OnPlacement(PlacementDecision{Shuffle: 2})
	c.OnPlacement(PlacementDecision{Shuffle: 0})
	c.Placements()[1].Shuffle = 9 // a copy: the collector keeps its own
	if p := c.Placements(); len(p) != 2 || p[0].Shuffle != 2 || p[1].Shuffle != 0 || len(c.eventLog()) != 4 {
		t.Fatalf("placements = %+v beside %d logged events, want shuffles 2 then 0 beside 4", p, len(c.eventLog()))
	}
	if got := len(c.TaskEvents()); got != 3 {
		t.Fatalf("task events = %d, want 3", got)
	}
	if got := c.Counts().Finished; got != 1 {
		t.Fatalf("Counts().Finished = %d, want 1", got)
	}
	if got := len(c.stageEvents()); got != 1 {
		t.Fatalf("stage events = %d, want 1", got)
	}
	// The log and its tally are the record: nothing restates them in the
	// registry.
	if got := c.Registry().Snapshot(); len(got) != 0 {
		t.Fatalf("the collector wrote %v to its registry", got)
	}
}

func TestNilCollectorNoOp(t *testing.T) {
	var c *Collector
	c.OnTask(TaskEvent{Phase: PhaseStarted})
	c.OnStage(StageEvent{})
	c.OnPlacement(PlacementDecision{})
	if c.TaskEvents() != nil || c.stageEvents() != nil || c.Placements() != nil || c.Counts().Started != 0 || c.Registry() != nil {
		t.Fatal("nil collector is not a no-op")
	}
}

func TestTaskSummaries(t *testing.T) {
	spans := []trace.Span{
		{Kind: trace.KindMap, Stage: 0, Start: 0, End: 1},
		{Kind: trace.KindMap, Stage: 0, Start: 0, End: 1},
		{Kind: trace.KindMap, Stage: 0, Start: 0, End: 1},
		{Kind: trace.KindMap, Stage: 0, Start: 0, End: 10}, // straggler: > 1.5× median
		{Kind: trace.KindReduce, Stage: 1, Start: 0, End: 2},
		{Kind: trace.KindFetch, Stage: 1, Start: 0, End: 9}, // not a summary kind
	}
	sums := TaskSummaries(spans, map[int]string{0: "map-stage", 1: "reduce-stage"})
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2: %+v", len(sums), sums)
	}
	m := sums[0]
	if m.Stage != 0 || m.Kind != "map" || m.Name != "map-stage" || m.Count != 4 {
		t.Fatalf("map summary = %+v", m)
	}
	if m.P50Sec != 1 || m.MaxSec != 10 || m.Stragglers != 1 {
		t.Fatalf("map percentiles = %+v", m)
	}
	if m.P50Sec > m.P95Sec || m.P95Sec > m.MaxSec {
		t.Fatalf("percentiles out of order: %+v", m)
	}
	if len(m.Hist) == 0 {
		t.Fatalf("map summary missing histogram: %+v", m)
	}
	total := 0
	for _, b := range m.Hist {
		total += b.Count
	}
	if total != m.Count {
		t.Fatalf("histogram total %d != count %d", total, m.Count)
	}
	rdc := sums[1]
	if rdc.Stage != 1 || rdc.Kind != "reduce" || rdc.Count != 1 {
		t.Fatalf("reduce summary = %+v", rdc)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Schema:         SchemaVersion,
		Backend:        "sim",
		Workload:       "wordcount",
		Scheme:         "AggShuffle",
		Seed:           7,
		Sites:          []string{"a", "b"},
		CompletionSec:  12.5,
		Stages:         []StageEvent{{ID: 0, Name: "s0", Start: 0, End: 12.5}},
		TrafficByClass: map[string]float64{"shuffle": 100},
		MatrixLabels:   []string{"a", "b"},
		TrafficMatrix:  [][]float64{{0, 60}, {40, 0}},
		TaskAttempts:   4,
		BytesTotal:     100,
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != "sim" || got.Seed != 7 || got.TrafficMatrix[0][1] != 60 {
		t.Fatalf("round-trip mangled report: %+v", got)
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	var a bytes.Buffer
	_ = rep.WriteJSON(&a)
	if a.String() != buf2.String() {
		t.Fatal("decode → re-encode is not stable")
	}
}

func TestDecodeReportRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeReport(strings.NewReader(`{"schema":"bogus/v0"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := DecodeReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestStageNames(t *testing.T) {
	names := StageNames([]StageEvent{{ID: 0, Name: "a"}, {ID: 3, Name: "b"}})
	if names[0] != "a" || names[3] != "b" || names[1] != "" {
		t.Fatalf("StageNames = %v", names)
	}
}
