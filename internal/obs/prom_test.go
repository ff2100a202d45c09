package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// promRegistry builds a registry covering every metric kind, label
// escaping, multiple label sets under one name, and the +Inf overflow
// bucket — the shapes the exposition encoder must render deterministically.
func promRegistry() *Registry {
	r := NewRegistry()
	r.Counter("tasks_total", Labels{"phase": "finished", "stage": "map"}).Add(7)
	r.Counter("tasks_total", Labels{"phase": "started", "stage": "map"}).Add(9)
	r.Counter("tasks_total", Labels{"phase": "started", "stage": `quo"te`}).Add(1)
	r.Counter("bytes_moved_total", Labels{"class": `back\slash`}).Add(1 << 30)
	r.Gauge("stage_duration_sec", Labels{"stage": "reduce\nline"}).Set(12.75)
	r.Gauge("workers_alive", nil).Set(4)
	h := r.Histogram("push_sec", []float64{0.1, 0.5, 2}, Labels{"worker": "w0"})
	for _, x := range []float64{0.05, 0.3, 0.4, 1.9, 99} {
		h.Observe(x)
	}
	return r
}

// TestWritePromGolden pins the exact exposition output. The registry
// snapshot is sorted by name then canonical labels and label keys render
// sorted, so any byte change is an encoding change — regenerate
// deliberately with `go test ./internal/obs -run PromGolden -update`.
func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition output drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWritePromDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteProm(&a, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical registries rendered differently")
	}
}

func TestWritePromHistogramCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 5 samples: the +Inf bucket must be cumulative (all of them), and
	// _count must agree.
	for _, line := range []string{
		`push_sec_bucket{worker="w0",le="0.1"} 1`,
		`push_sec_bucket{worker="w0",le="0.5"} 3`,
		`push_sec_bucket{worker="w0",le="2"} 4`,
		`push_sec_bucket{worker="w0",le="+Inf"} 5`,
		`push_sec_count{worker="w0"} 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing exposition line %q in:\n%s", line, out)
		}
	}
}

func TestWritePromEscaping(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`tasks_total{phase="started",stage="quo\"te"} 1`,
		`bytes_moved_total{class="back\\slash"} 1.073741824e+09`,
		`stage_duration_sec{stage="reduce\nline"} 12.75`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing escaped line %q in:\n%s", line, out)
		}
	}
	// One TYPE line per metric name, even with several label sets.
	if got := strings.Count(out, "# TYPE tasks_total counter"); got != 1 {
		t.Fatalf("tasks_total TYPE lines = %d, want 1", got)
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, (*Registry)(nil).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry rendered %q", buf.String())
	}
}

// TestReportPointsGolden pins /metrics' rendering of a run report: one
// report_* gauge per field ReportPoints reads, in field order, on a report
// that fills every section it reads. Regenerate deliberately with
// `go test ./internal/obs -run ReportPointsGolden -update`.
func TestReportPointsGolden(t *testing.T) {
	rep := &Report{
		Schema:         SchemaVersion,
		Backend:        "live",
		Stages:         []StageEvent{{ID: 0, Name: "stage0(map:m)", End: 1.5}, {ID: 1, Name: "stage1(result:r)", Start: 1.5, End: 2}},
		TrafficByClass: map[string]float64{"shuffle": 300, "push": 700},
		TaskAttempts:   9,
		Retries:        1,
		BytesTotal:     1000,
		BytesRaw:       1800,
		Storage: &StorageStats{ResidentBytes: 512, ResidentOutputs: 2, SpilledBytes: 256, SpilledOutputs: 1,
			SpilledBytesTotal: 384, SpillEvents: 3, ReloadBytesTotal: 128},
		Network: &NetworkStats{Links: []LinkStats{
			{Src: "w0", Dst: "w1", ThroughputBps: 8e6, Samples: 4, Bytes: 700},
			{Src: "w1", Dst: "w0", ConfiguredBps: 1e9},
		}},
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, ReportPoints(rep)); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.prom")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("report rendering drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	if got := ReportPoints(nil); got != nil {
		t.Fatalf("a nil report rendered %v", got)
	}
}
