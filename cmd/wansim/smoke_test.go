package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wanshuffle/internal/jobs"
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
// Between them the runs cover a sim run, live runs and a -serve run, so the
// last step holds the metric names their /metrics served against
// obs.Catalogue, README's source.
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
			// and byte conservation must survive the storage detour.
			name: "spill",
			args: []string{"-live", "-scale", "0.05", "-memory-budget", "4KB"},
			check: func(t *testing.T, rep *obs.Report) {
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
			// Transfer samples ride worker heartbeats, so /report's network
			// section fills while the job runs; the final report then carries
			// drift for every pair the micro topology configures.
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
			// Spans stream in via heartbeats under one live-… trace ID, and
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
	t.Run("job service", func(t *testing.T) { smokeJobService(t, emitted) })
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

// smokeJobService drives -serve over the shared live cluster: a long
// deadline-bound job holds the cluster while four jobs from two tenants
// queue behind it up to the queue bound; its mid-run cancellation must not
// poison them, they must run in arrival order, the job table must account
// for every submission, and canceling the context must drain the service.
// Its /metrics, the last job's report, joins the catalogue check.
func smokeJobService(t *testing.T, emitted map[string]bool) {
	w := startWansim(t, "-serve", "-live", "-scheme", "agg", "-scale", "0.05",
		"-max-queue", "4", "-telemetry-addr", "127.0.0.1:0")
	url := w.url(t)

	submitJob(t, url, jobs.SubmitRequest{Tenant: "ops", Workload: "wordcount", Repeat: 100000, DeadlineMS: 500})
	for _, tenant := range []string{"heavy", "heavy", "light", "light"} {
		submitJob(t, url, jobs.SubmitRequest{Tenant: tenant, Workload: "wordcount"})
	}
	// The queue is at its bound: the next submission is shed, not starved.
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(`{"tenant":"light","workload":"wordcount"}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit got %d, want 429", resp.StatusCode)
	}

	var list struct{ Jobs []jobs.Info }
	waitTest(t, "six jobs in a terminal state", func() bool {
		getJSONTest(t, url+"/jobs", &list)
		for _, j := range list.Jobs {
			if j.State != jobs.StateDone && j.State != jobs.StateFailed && j.State != jobs.StateCanceled && j.State != jobs.StateRejected {
				return false
			}
		}
		return len(list.Jobs) == 6
	})
	states := map[jobs.State]int{}
	for _, j := range list.Jobs {
		states[j.State]++
		switch {
		case j.Tenant == "ops" && j.State != jobs.StateCanceled:
			t.Fatalf("the deadline-bound gate job ended %s, want canceled: %+v", j.State, j)
		case j.State == jobs.StateDone && !j.HasReport:
			t.Fatalf("done job without a retained report: %+v", j)
		case j.State != jobs.StateRejected && (j.QueueWaitSec <= 0 || j.RunSec <= 0):
			t.Fatalf("dispatched job listed without its queue wait or run time: %+v", j)
		}
	}
	if want := map[jobs.State]int{jobs.StateDone: 4, jobs.StateCanceled: 1, jobs.StateRejected: 1}; !reflect.DeepEqual(states, want) {
		t.Fatalf("job states %v, want %v", states, want)
	}

	// The jobs queued behind the gate run in the order they arrived. The
	// watch stream replays history first, so it is complete once every
	// job's terminal event has gone by.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/jobs?watch=1", nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var running []string
	dec := json.NewDecoder(stream.Body)
	for terminal := 0; terminal < 6; {
		var ev jobs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("watch stream ended after %d terminal events: %v", terminal, err)
		}
		switch ev.State {
		case jobs.StateRunning:
			running = append(running, ev.Tenant)
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled, jobs.StateRejected:
			terminal++
		}
	}
	if want := []string{"ops", "heavy", "heavy", "light", "light"}; !reflect.DeepEqual(running, want) {
		t.Fatalf("dispatch order %v, want %v", running, want)
	}

	scrapeMetrics(t, url, emitted)

	w.cancel()
	if err := w.wait(t); err != nil {
		t.Fatalf("serve mode returned %v after its context was canceled", err)
	}
	if out := w.out.String(); !strings.Contains(out, "job service: stopped after 6 jobs (4 done, 0 failed, 1 canceled, 1 rejected)") {
		t.Fatalf("missing shutdown narration:\n%s", out)
	}
}
