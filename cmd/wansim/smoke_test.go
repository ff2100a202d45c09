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
	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

// metricSum totals a metric over all its label sets.
func metricSum(rep *obs.Report, name string) float64 {
	var sum float64
	for _, m := range rep.Metrics {
		if m.Name == name {
			sum += m.Value
		}
	}
	return sum
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
// telemetry endpoint — for what the feature promises. Between them the runs
// cover a sim run, live runs and a -serve run, so the last step holds the
// metric names they emitted against obs.Catalogue, README's source.
func TestSmoke(t *testing.T) {
	emitted := map[string]bool{}
	for _, tc := range []struct {
		name string
		args []string
		// scrape, when set, runs against the telemetry endpoint as soon as
		// it is up; the run then lingers until the test is done with it.
		scrape func(t *testing.T, url string)
		check  func(t *testing.T, rep *obs.Report, url string)
	}{
		{
			// Under a 4 KB per-worker budget the block stores must spill,
			// and byte conservation must survive the storage detour.
			name: "spill",
			args: []string{"-live", "-scale", "0.05", "-memory-budget", "4KB"},
			check: func(t *testing.T, rep *obs.Report, _ string) {
				st := rep.Storage
				if st == nil || st.SpillEvents <= 0 || st.SpilledBytesTotal <= 0 || st.ReloadBytesTotal <= 0 {
					t.Fatalf("no spill activity under a 4KB budget: %+v", st)
				}
				if m := matrixSum(rep); m != rep.BytesTotal {
					t.Fatalf("traffic matrix sums to %v, bytes_total is %v", m, rep.BytesTotal)
				}
				if got := metricSum(rep, "blockstore_spill_events_total"); got != float64(st.SpillEvents) {
					t.Fatalf("blockstore_spill_events_total = %v, storage.spill_events = %d", got, st.SpillEvents)
				}
			},
		},
		{
			// Conservation holds on the wire, and the raw total dominates it
			// — here on the fetch path, with sort's range sampling and
			// deferred bucketing (the other cases push wordcount).
			name: "compressed",
			args: []string{"-live", "-workload", "sort", "-scheme", "spark", "-scale", "0.05", "-compress", "gzip"},
			check: func(t *testing.T, rep *obs.Report, _ string) {
				if rep.BytesTotal <= 0 || matrixSum(rep) != rep.BytesTotal {
					t.Fatalf("traffic matrix sums to %v, bytes_total is %v", matrixSum(rep), rep.BytesTotal)
				}
				if rep.BytesRaw <= rep.BytesTotal {
					t.Fatalf("bytes_raw %v not above bytes_total %v: compression ineffective", rep.BytesRaw, rep.BytesTotal)
				}
				if raw, wire := metricSum(rep, "bytes_raw_total"), metricSum(rep, "bytes_wire_total"); raw < wire {
					t.Fatalf("bytes_raw_total %v below bytes_wire_total %v", raw, wire)
				}
			},
		},
		{
			// Every bandwidth-placed decision names its site and prices
			// every candidate with a finite cost.
			name: "bandwidth placement",
			args: []string{"-live", "-scale", "0.2", "-aggregator", "bandwidth", "-topology", "ec2"},
			check: func(t *testing.T, rep *obs.Report, _ string) {
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
				if got := metricSum(rep, "placement_decisions_total"); got != float64(len(pl.Decisions)) {
					t.Fatalf("placement_decisions_total = %v, report has %d decisions", got, len(pl.Decisions))
				}
			},
		},
		{
			// Transfer samples ride worker heartbeats, so /links fills while
			// the job runs; the report then carries drift for every pair the
			// micro topology configures, and the timeline ring the link_*
			// series.
			name: "link observatory",
			args: []string{"-live", "-scale", "0.2", "-topology", "micro", "-timeline-interval", "50ms"},
			scrape: func(t *testing.T, url string) {
				waitTest(t, "a measured pair on /links", func() bool {
					status, body := httpGet(t, url+"/links")
					if status != http.StatusOK {
						return false
					}
					var net obs.NetworkStats
					if err := json.Unmarshal(body, &net); err != nil {
						t.Fatalf("/links: %v", err)
					}
					for _, l := range net.Links {
						if l.Samples > 0 && l.ThroughputBps > 0 && !math.IsInf(l.ThroughputBps, 0) {
							return true
						}
					}
					return false
				})
			},
			check: func(t *testing.T, rep *obs.Report, url string) {
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
				// The ring samples on its own ticker, so the sample that
				// first sees the link_* series may still be a tick away.
				waitTest(t, "link_* series on /timeline", func() bool {
					_, body := httpGet(t, url+"/timeline")
					samples := ndjson[netobs.Sample](t, body)
					if len(samples) > 0 && samples[len(samples)-1].Seq < samples[0].Seq {
						t.Fatalf("/timeline seq not monotonic: %v", samples)
					}
					for _, s := range samples {
						for _, p := range s.Points {
							if strings.HasPrefix(p.Name, "link_") {
								return true
							}
						}
					}
					return false
				})
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
			check: func(t *testing.T, rep *obs.Report, _ string) {
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
			check: func(t *testing.T, rep *obs.Report, _ string) {
				if rep.CriticalPath == nil || len(rep.Tasks) == 0 {
					t.Fatalf("sim report lacks tasks (%d) or critical_path (%v)", len(rep.Tasks), rep.CriticalPath)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "report.json")
			args := append([]string{"-workload", "wordcount", "-log-level", "off", "-validate", "-report", path}, tc.args...)
			if tc.scrape != nil {
				args = append(args, "-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "30s")
			}
			w := startWansim(t, args...)
			var url string
			if tc.scrape != nil {
				url = w.url(t)
				tc.scrape(t, url)
			}
			w.waitOutput(t, "output validated")
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rep, err := obs.DecodeReport(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rep.Metrics {
				emitted[m.Name] = true
			}
			tc.check(t, rep, url)
		})
	}
	t.Run("job service", func(t *testing.T) { smokeJobService(t, emitted) })
	t.Run("metrics catalogue", func(t *testing.T) { checkMetricsCatalogue(t, emitted) })
}

// faultOnlyMetrics are catalogue rows no healthy run emits: each counts a
// failure the smoke runs do not provoke.
var faultOnlyMetrics = map[string]bool{
	"push_duplicates_total": true, // a retried push attempt
	"jobs_failed_total":     true, // a job ending in a non-cancellation error
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
		if !emitted[name] && !faultOnlyMetrics[name] {
			t.Errorf("obs.Catalogue lists %s, which no smoke run emitted", name)
		}
	}
}

// smokeJobService drives -serve over the shared live cluster: a long
// deadline-bound job holds the cluster while four jobs from two
// unequal-weight tenants queue behind it up to the admission bound; its
// mid-run cancellation must not poison them, dispatch must interleave the
// tenants by weight, the jobs_* metrics must agree with the job table, and
// canceling the context must drain the service.
func smokeJobService(t *testing.T, emitted map[string]bool) {
	w := startWansim(t, "-serve", "-live", "-scheme", "agg", "-scale", "0.05", "-log-level", "off",
		"-tenants", "heavy=2,light=1", "-max-queue", "4", "-telemetry-addr", "127.0.0.1:0")
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
		}
	}
	if want := map[jobs.State]int{jobs.StateDone: 4, jobs.StateCanceled: 1, jobs.StateRejected: 1}; !reflect.DeepEqual(states, want) {
		t.Fatalf("job states %v, want %v", states, want)
	}

	// Weighted-fair dispatch: with heavy=2, light=1 and all four queued
	// behind the gate, the running order interleaves the tenants. The watch
	// stream replays history first, so it is complete once every job's
	// terminal event has gone by.
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
	if want := []string{"ops", "heavy", "light", "heavy", "light"}; !reflect.DeepEqual(running, want) {
		t.Fatalf("dispatch order %v, want %v", running, want)
	}

	_, metrics := httpGet(t, url+"/metrics")
	totals := map[string]float64{}
	for _, line := range strings.Split(string(metrics), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		emitted[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")] = true
		var v float64
		fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v)
		totals[name] += v
	}
	for name, want := range map[string]float64{
		"jobs_submitted_total": 6, "jobs_admitted_total": 5, "jobs_done_total": 4,
		"jobs_canceled_total": 1, "jobs_rejected_total": 1, "jobs_failed_total": 0, "jobs_queue_depth": 0,
	} {
		if totals[name] != want {
			t.Errorf("%s = %v, want %v", name, totals[name], want)
		}
	}

	w.cancel()
	if err := w.wait(t); err != nil {
		t.Fatalf("serve mode returned %v after its context was canceled", err)
	}
	if out := w.out.String(); !strings.Contains(out, "job service: stopped after 6 jobs (4 done, 0 failed, 1 canceled, 1 rejected)") {
		t.Fatalf("missing shutdown narration:\n%s", out)
	}
}
