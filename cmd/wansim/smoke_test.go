package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

// scrapeMetrics reads /metrics once and adds the metric name of every
// series it serves to emitted.
func scrapeMetrics(t *testing.T, url string, emitted map[string]bool) {
	t.Helper()
	status, body := httpGet(t, url+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: %d: %s", status, body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		emitted[name] = true
	}
}

func matrixSum(rep *obs.Report) float64 {
	var sum float64
	for _, row := range rep.TrafficMatrix {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// mapStages counts the report's map stages: one per shuffle.
func mapStages(rep *obs.Report) int {
	n := 0
	for _, st := range rep.Stages {
		if strings.Contains(st.Name, "(map:") {
			n++
		}
	}
	return n
}

// ndjson decodes one value of type T per non-empty line.
func ndjson[T any](t *testing.T, body []byte) []T {
	t.Helper()
	var out []T
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	return out
}

// pollSpans scrapes /trace until it serves spans — while the job is still
// running if the scrape wins the race, during the linger otherwise — and
// checks they all carry one trace ID with the backend's prefix.
func pollSpans(t *testing.T, url, prefix string) {
	t.Helper()
	var spans []trace.Span
	waitTest(t, "spans on /trace", func() bool {
		if status, body := httpGet(t, url+"/trace"); status == http.StatusOK {
			spans = ndjson[trace.Span](t, body)
		}
		return len(spans) > 0
	})
	for _, sp := range spans {
		if sp.Trace != spans[0].Trace || !strings.HasPrefix(string(sp.Trace), prefix) {
			t.Fatalf("/trace mixes or mislabels trace IDs: %q and %q, want one %q… ID", spans[0].Trace, sp.Trace, prefix)
		}
	}
}

// TestSmoke runs wansim end to end, in process, once per data-plane feature,
// and checks each run's report — and where the feature has one, its
// telemetry endpoint mid-run — for what the feature promises. Every run
// serves telemetry, and its /metrics is scraped once the run is over.
// Between them the runs cover a sim run and live runs, so the last step
// holds the metric names their /metrics served against obs.Catalogue,
// README's source.
func TestSmoke(t *testing.T) {
	emitted := map[string]bool{}
	for _, tc := range []struct {
		name string
		args []string
		// scrape, when set, runs against the telemetry endpoint as soon as
		// it is up.
		scrape func(t *testing.T, url string)
		check  func(t *testing.T, rep *obs.Report)
	}{
		{
			// Under a 4 KB per-worker budget the block stores must spill,
			// and byte conservation must survive the storage detour. The
			// default scheme, agg, puts a transferTo before every shuffle on
			// the live cluster too: every shuffle pushes, each after one
			// placement decision.
			name: "spill",
			args: []string{"-live", "-scale", "0.05", "-memory-budget", "4KB"},
			check: func(t *testing.T, rep *obs.Report) {
				if maps := mapStages(rep); rep.Scheme != "push" || maps == 0 || rep.Placement == nil || len(rep.Placement.Decisions) != maps {
					t.Fatalf("scheme %q with placement %+v over %d shuffles, want push and one decision per shuffle", rep.Scheme, rep.Placement, maps)
				}
				st := rep.Storage
				if st == nil || st.SpillEvents <= 0 || st.SpilledBytesTotal <= 0 || st.ReloadBytesTotal <= 0 {
					t.Fatalf("no spill activity under a 4KB budget: %+v", st)
				}
				if m := matrixSum(rep); m != rep.BytesTotal {
					t.Fatalf("traffic matrix sums to %v, bytes_total is %v", m, rep.BytesTotal)
				}
			},
		},
		{
			// Conservation holds on the wire, and the raw total dominates it
			// — here on the fetch path, with sort's range sampling and
			// deferred bucketing (the other cases push wordcount).
			name: "compressed",
			args: []string{"-live", "-workload", "sort", "-scheme", "spark", "-scale", "0.05", "-compress", "gzip"},
			check: func(t *testing.T, rep *obs.Report) {
				if rep.Scheme != "fetch" || rep.Placement != nil {
					t.Fatalf("scheme %q with placement %+v, want fetch and no decisions", rep.Scheme, rep.Placement)
				}
				if rep.BytesTotal <= 0 || matrixSum(rep) != rep.BytesTotal {
					t.Fatalf("traffic matrix sums to %v, bytes_total is %v", matrixSum(rep), rep.BytesTotal)
				}
				if rep.BytesRaw <= rep.BytesTotal {
					t.Fatalf("bytes_raw %v not above bytes_total %v: compression ineffective", rep.BytesRaw, rep.BytesTotal)
				}
			},
		},
		{
			// Every bandwidth-placed decision names its site and prices
			// every candidate with a finite cost.
			name: "bandwidth placement",
			args: []string{"-live", "-scale", "0.2", "-aggregator", "bandwidth", "-topology", "ec2"},
			check: func(t *testing.T, rep *obs.Report) {
				pl := rep.Placement
				if pl == nil || pl.Policy != "bandwidth" || len(pl.Decisions) == 0 {
					t.Fatalf("placement section = %+v, want bandwidth decisions", pl)
				}
				for _, d := range pl.Decisions {
					if d.ChosenSite == "" || math.IsInf(d.CostSec, 0) || math.IsNaN(d.CostSec) || len(d.Candidates) == 0 {
						t.Fatalf("incomplete placement decision: %+v", d)
					}
					for _, c := range d.Candidates {
						if math.IsInf(c.CostSec, 0) || math.IsNaN(c.CostSec) {
							t.Fatalf("candidate without a finite cost: %+v", c)
						}
					}
				}
			},
		},
		{
			// Each exchange feeds its transfer sample to the link estimator as
			// it ends, so /report's network section fills while the job runs;
			// the final report then carries drift for every pair the micro
			// topology configures.
			name: "link observatory",
			args: []string{"-live", "-scale", "0.2", "-topology", "micro"},
			scrape: func(t *testing.T, url string) {
				waitTest(t, "a measured pair on /report", func() bool {
					status, body := httpGet(t, url+"/report")
					if status != http.StatusOK {
						return false
					}
					rep, err := obs.DecodeReport(bytes.NewReader(body))
					if err != nil {
						t.Fatalf("/report: %v", err)
					}
					if rep.Network == nil {
						return false
					}
					for _, l := range rep.Network.Links {
						if l.Samples > 0 && l.ThroughputBps > 0 && !math.IsInf(l.ThroughputBps, 0) {
							return true
						}
					}
					return false
				})
			},
			check: func(t *testing.T, rep *obs.Report) {
				configured := 0
				for _, l := range rep.Network.Links {
					if l.ConfiguredBps > 0 {
						configured++
						if l.Drift == nil || math.IsInf(*l.Drift, 0) || math.IsNaN(*l.Drift) {
							t.Fatalf("configured link without a finite drift: %+v", l)
						}
					}
				}
				if configured == 0 {
					t.Fatalf("no configured link in the report's network section: %+v", rep.Network)
				}
			},
		},
		{
			// Spans reach the recorder as they end, under one live-… trace ID, and
			// the critical path has its time attributed. Which tasks end up
			// on it is timing: map, push, fetch and reduce all on the
			// aggregator worker is a valid path over one host and no link,
			// so links are held against the path's own steps, and "the job
			// crossed workers" against the traffic matrix.
			name:   "trace",
			args:   []string{"-live", "-scale", "0.2"},
			scrape: func(t *testing.T, url string) { pollSpans(t, url, "live-") },
			check: func(t *testing.T, rep *obs.Report) {
				cp := rep.CriticalPath
				if cp == nil || cp.Hosts < 1 || len(cp.Steps) == 0 {
					t.Fatalf("critical path = %+v, want steps on at least one host", cp)
				}
				if frac := cp.ComputeFrac + cp.TransferFrac; frac <= 0 || frac > 1+1e-9 {
					t.Fatalf("compute+transfer fractions %v outside (0,1]", frac)
				}
				// A link comes from a transfer step between two sites; a
				// receive span names two sites as well but counts as compute.
				crosses := false
				for _, st := range cp.Steps {
					switch st.Kind {
					case trace.KindPush, trace.KindFetch, trace.KindServe, trace.KindInput, trace.KindResult:
						crosses = crosses || (st.Src != "" && st.Dst != "" && st.Src != st.Dst)
					}
				}
				if crosses != (len(cp.Links) > 0) {
					t.Fatalf("critical path has %d links, a transfer step between two sites: %v: %+v", len(cp.Links), crosses, cp)
				}
				// Six workers push to one aggregator.
				var offDiagonal float64
				for i, row := range rep.TrafficMatrix {
					for j, v := range row {
						if i != j {
							offDiagonal += v
						}
					}
				}
				if offDiagonal <= 0 {
					t.Fatalf("no bytes between distinct workers: matrix %v", rep.TrafficMatrix)
				}
			},
		},
		{
			// The simulator's recorder locks like the live one, so its
			// endpoint serves spans the same way.
			name:   "trace sim",
			args:   []string{"-scale", "0.2"},
			scrape: func(t *testing.T, url string) { pollSpans(t, url, "sim-") },
			check: func(t *testing.T, rep *obs.Report) {
				if rep.CriticalPath == nil || len(rep.Tasks) == 0 {
					t.Fatalf("sim report lacks tasks (%d) or critical_path (%v)", len(rep.Tasks), rep.CriticalPath)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "report.json")
			// The run lingers until the test is done with its endpoint.
			w := startWansim(t, append([]string{"-workload", "wordcount", "-validate", "-report", path,
				"-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "30s"}, tc.args...)...)
			url := w.url(t)
			if tc.scrape != nil {
				tc.scrape(t, url)
			}
			w.waitOutput(t, "output validated")
			scrapeMetrics(t, url, emitted)
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rep, err := obs.DecodeReport(f)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, rep)
		})
	}
	t.Run("metrics catalogue", func(t *testing.T) { checkMetricsCatalogue(t, emitted) })
}

// update rewrites README's generated metrics catalogue rows:
//
//	go test ./cmd/wansim -run 'TestSmoke/metrics_catalogue' -update
var update = flag.Bool("update", false, "rewrite README's metrics catalogue rows from obs.Catalogue")

// Markers around README's generated rows.
const (
	catalogueBegin = "<!-- metrics catalogue: generated from internal/obs/catalogue.go, do not edit -->\n"
	catalogueEnd   = "<!-- end of metrics catalogue -->\n"
)

// checkMetricsCatalogue fails when obs.Catalogue and the metric names the
// runs emitted have drifted apart, in either direction, or README's rows
// are not the ones the catalogue generates.
func checkMetricsCatalogue(t *testing.T, emitted map[string]bool) {
	var rows strings.Builder
	rows.WriteString("| Metric | Type | Labels | Backends | Meaning |\n|---|---|---|---|---|\n")
	catalogue := map[string]bool{}
	for _, m := range obs.Catalogue {
		fmt.Fprintf(&rows, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Type, m.Labels, m.Backends, m.Meaning)
		catalogue[m.Name] = true
	}
	const path = "../../README.md"
	readme, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(readme), catalogueBegin)
	old, tail, ok2 := strings.Cut(rest, catalogueEnd)
	if !ok || !ok2 {
		t.Fatalf("README.md lacks the metrics catalogue markers %q … %q", catalogueBegin, catalogueEnd)
	}
	if *update {
		if err := os.WriteFile(path, []byte(head+catalogueBegin+rows.String()+catalogueEnd+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if old != rows.String() {
		t.Errorf("README's metrics catalogue is not what obs.Catalogue generates; run this subtest with -update")
	}
	if len(emitted) == 0 {
		return // run on its own, without the smoke runs that emit
	}
	for name := range emitted {
		if !catalogue[name] {
			t.Errorf("metric %s is emitted but has no row in obs.Catalogue", name)
		}
	}
	for name := range catalogue {
		if !emitted[name] {
			t.Errorf("obs.Catalogue lists %s, which no smoke run emitted", name)
		}
	}
}
