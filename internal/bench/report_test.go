package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// smallOpts keeps report-test runs fast: one seeded run at 5% of Table I
// modeled sizes, validated against the reference.
func smallOpts() Options {
	return Options{Runs: 1, BaseSeed: 1, Scale: 0.05, Validate: true, trace: true}
}

// TestRunReportGolden pins the exact run-report JSON of a seeded
// WordCount/AggShuffle run. The simulator is deterministic per seed and
// encoding/json orders struct fields and map keys stably, so any byte
// change here is a behavioural or schema change — regenerate deliberately
// with `go test ./internal/bench -run Golden -update`.
func TestRunReportGolden(t *testing.T) {
	rep, err := RunOne(workloads.WordCount(), core.SchemeAggShuffle, 1, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.RunReport("wordcount").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wordcount-agg-report.json")
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
		t.Fatalf("run report drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestReportsRoundTripAllWorkloads emits a run report for every HiBench
// workload × scheme and checks each decodes under the schema and re-encodes
// byte-identically — the -report flag's contract.
func TestReportsRoundTripAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload × scheme")
	}
	var reports []*obs.Report
	for _, w := range workloads.All() {
		for _, scheme := range Schemes() {
			rep, err := RunOne(w, scheme, 1, smallOpts())
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, scheme, err)
			}
			reports = append(reports, rep.RunReport(w.Name))
		}
	}
	for _, rep := range reports {
		var first bytes.Buffer
		if err := rep.WriteJSON(&first); err != nil {
			t.Fatalf("%s/%s: %v", rep.Workload, rep.Scheme, err)
		}
		dec, err := obs.DecodeReport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s/%s: %v", rep.Workload, rep.Scheme, err)
		}
		var second bytes.Buffer
		if err := dec.WriteJSON(&second); err != nil {
			t.Fatalf("%s/%s: %v", rep.Workload, rep.Scheme, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s/%s: decode → re-encode is not byte-stable", rep.Workload, rep.Scheme)
		}
		if rep.Backend != "sim" || rep.CompletionSec <= 0 || len(rep.Stages) == 0 {
			t.Fatalf("%s/%s: degenerate report: backend=%q completion=%v stages=%d",
				rep.Workload, rep.Scheme, rep.Backend, rep.CompletionSec, len(rep.Stages))
		}
		if len(rep.Tasks) == 0 {
			t.Fatalf("%s/%s: traced run produced no task summaries", rep.Workload, rep.Scheme)
		}
		if len(rep.TrafficMatrix) != len(rep.MatrixLabels) {
			t.Fatalf("%s/%s: matrix %d rows vs %d labels",
				rep.Workload, rep.Scheme, len(rep.TrafficMatrix), len(rep.MatrixLabels))
		}
	}
}
