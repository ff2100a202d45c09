package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

func testCollector() *obs.Collector {
	c := obs.NewCollector()
	c.OnTask(obs.TaskEvent{Phase: obs.PhaseScheduled, StageName: "map", Part: 0})
	c.OnTask(obs.TaskEvent{Phase: obs.PhaseStarted, StageName: "map", Part: 0})
	c.OnTask(obs.TaskEvent{Phase: obs.PhaseFinished, StageName: "map", Part: 0})
	c.OnStage(obs.StageEvent{ID: 0, Name: "map", Start: 0, End: 1.5})
	return c
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(Handler(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestMetricsEndpoint pins /metrics' one rendering: the report /report
// serves, as report_* gauges, then the registry's counters — and either
// source alone is enough to answer.
func TestMetricsEndpoint(t *testing.T) {
	c := testCollector()
	c.Registry().Counter("probe_total", nil).Add(3)
	report := func() *obs.Report { return obs.InProgressReport("sim", "wordcount", "AggShuffle", c) }
	ts := newTestServer(t, Config{Registry: c.Registry, Report: report})
	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if got := hdr.Get("Content-Type"); got != obs.PromContentType {
		t.Fatalf("content type = %q, want %q", got, obs.PromContentType)
	}
	for _, want := range []string{
		"# TYPE report_task_attempts gauge\nreport_task_attempts 1\n",
		"report_stages_done 1\n",
		`report_stage_duration_sec{stage="map"} 1.5` + "\n",
		"# TYPE probe_total counter\nprobe_total 3\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q:\n%s", want, body)
		}
	}
	if strings.Index(body, "report_") > strings.Index(body, "probe_total") {
		t.Errorf("the registry renders before the report:\n%s", body)
	}
	for name, cfg := range map[string]Config{
		"report only":   {Report: report},
		"registry only": {Registry: c.Registry},
	} {
		if code, _, _ := get(t, newTestServer(t, cfg).URL+"/metrics"); code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", name, code)
		}
	}
}

func TestMetricsUnavailable(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nil func": {},
		"func nil reg and report": {
			Registry: func() *obs.Registry { return nil },
			Report:   func() *obs.Report { return nil },
		},
	} {
		ts := newTestServer(t, cfg)
		if code, _, _ := get(t, ts.URL+"/metrics"); code != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", name, code)
		}
	}
}

// TestReportEndpointMatchesWriteJSON pins the /report contract: the HTTP
// body is byte-for-byte the same JSON Report.WriteJSON emits — the single
// report-building code path shared with the wansim -report file — and its
// network section is the link estimate matrix, drift included.
func TestReportEndpointMatchesWriteJSON(t *testing.T) {
	c := testCollector()
	rep := obs.InProgressReport("sim", "wordcount", "AggShuffle", c)
	est := netobs.NewEstimator(netobs.Config{})
	est.ObserveTransfer("us-east-1", "eu-central-1", 1e6, 1.0)
	rep.Network = netobs.ReportSection(est, []netobs.ConfiguredLink{{Src: "us-east-1", Dst: "eu-central-1", Bps: 16e6}})
	ts := newTestServer(t, Config{Report: func() *obs.Report { return rep }})
	code, body, hdr := get(t, ts.URL+"/report")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if got := hdr.Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type = %q", got)
	}
	var want bytes.Buffer
	if err := rep.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("/report body differs from WriteJSON:\n%s\n---\n%s", body, want.String())
	}
	rt, err := obs.DecodeReport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("decoding /report body: %v", err)
	}
	if rt.Backend != "sim" || rt.Workload != "wordcount" {
		t.Fatalf("decoded report = %+v", rt)
	}
	if rt.Network == nil || len(rt.Network.Links) != 1 {
		t.Fatalf("decoded network section = %+v, want 1 link", rt.Network)
	}
	if l := rt.Network.Links[0]; l.Samples != 1 || l.ThroughputBps != 8e6 || l.Drift == nil || *l.Drift != 0.5 {
		t.Fatalf("decoded link = %+v, want 1 sample at 8 Mbit/s, drift 0.5", l)
	}
}

func TestReportUnavailable(t *testing.T) {
	ts := newTestServer(t, Config{Report: func() *obs.Report { return nil }})
	if code, _, _ := get(t, ts.URL+"/report"); code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
}

// TestEventsStream checks the NDJSON stream: history first, then events
// published while the client stays connected.
func TestEventsStream(t *testing.T) {
	c := testCollector()
	ts := newTestServer(t, Config{Events: func() *obs.Collector { return c }})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("content type = %q", got)
	}

	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for len(lines) < 4 && sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 4 {
		t.Fatalf("history lines = %d, want 4 (err %v)", len(lines), sc.Err())
	}
	if !strings.Contains(lines[0], `"seq":1`) || !strings.Contains(lines[3], `"type":"stage"`) {
		t.Fatalf("history = %v", lines)
	}

	// A live event published after the history was consumed must arrive.
	c.OnTask(obs.TaskEvent{Phase: obs.PhaseStarted, StageName: "reduce", Part: 3})
	if !sc.Scan() {
		t.Fatalf("no live event line: %v", sc.Err())
	}
	live := sc.Text()
	if !strings.Contains(live, `"seq":5`) || !strings.Contains(live, `"reduce"`) {
		t.Fatalf("live line = %s", live)
	}
}

func TestEventsUnavailable(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code, _, _ := get(t, ts.URL+"/events"); code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
}

func TestPprofMounted(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d body %.80s", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", code)
	}
}

func TestIndexAndNotFound(t *testing.T) {
	ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/pprof/") {
		t.Fatalf("index: status %d body %.80s", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/nonsense"); code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
}

// TestIndexListsWiredEndpointsOnly holds the index to what answers: an
// endpoint whose source is not wired would answer 503 for the life of the
// server, so the index does not list it.
func TestIndexListsWiredEndpointsOnly(t *testing.T) {
	c := testCollector()
	for _, tc := range []struct {
		name   string
		cfg    Config
		listed []string
		not    []string
	}{
		{"nothing wired", Config{}, nil, []string{"GET /metrics", "GET /report", "GET /events", "GET /trace", "GET /jobs"}},
		{"no report or trace", Config{Registry: c.Registry, Events: func() *obs.Collector { return c }, Jobs: http.NotFoundHandler()},
			[]string{"GET /metrics", "GET /events", "GET /jobs"}, []string{"GET /report", "GET /trace"}},
		{"one run", Config{Report: func() *obs.Report { return nil }, Trace: func() []trace.Span { return nil }},
			[]string{"GET /metrics", "GET /report", "GET /trace"}, []string{"GET /events", "GET /jobs"}},
	} {
		_, body, _ := get(t, newTestServer(t, tc.cfg).URL+"/")
		for _, want := range tc.listed {
			if !strings.Contains(body, want+" ") {
				t.Errorf("%s: index does not list %s:\n%s", tc.name, want, body)
			}
		}
		for _, unwanted := range tc.not {
			if strings.Contains(body, unwanted+" ") {
				t.Errorf("%s: index lists unwired %s:\n%s", tc.name, unwanted, body)
			}
		}
	}
}

func TestStartServesAndCloses(t *testing.T) {
	c := testCollector()
	srv, err := Start("127.0.0.1:0", Config{Report: func() *obs.Report { return obs.InProgressReport("sim", "", "", c) }})
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "report_task_attempts 1\n") {
		t.Fatalf("metrics via Start: status %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// promSeries parses Prometheus text exposition into series → value.
func promSeries(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}
