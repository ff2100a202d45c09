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

	"wanshuffle/internal/obs"
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

func TestMetricsEndpoint(t *testing.T) {
	c := testCollector()
	ts := newTestServer(t, Config{Registry: c.Registry})
	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if got := hdr.Get("Content-Type"); got != obs.PromContentType {
		t.Fatalf("content type = %q, want %q", got, obs.PromContentType)
	}
	for _, want := range []string{
		"# TYPE tasks_total counter",
		`tasks_total{phase="finished",stage="map"} 1`,
		"stages_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsUnavailable(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nil func":     {},
		"func nil reg": {Registry: func() *obs.Registry { return nil }},
	} {
		ts := newTestServer(t, cfg)
		if code, _, _ := get(t, ts.URL+"/metrics"); code != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", name, code)
		}
	}
}

// TestReportEndpointMatchesWriteJSON pins the /report contract: the HTTP
// body is byte-for-byte the same JSON Report.WriteJSON emits — the single
// report-building code path shared with the wansim -report file.
func TestReportEndpointMatchesWriteJSON(t *testing.T) {
	c := testCollector()
	rep := obs.InProgressReport("sim", "wordcount", "AggShuffle", c)
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
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: status %d body %.80s", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/nonsense"); code != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", code)
	}
}

func TestStartServesAndCloses(t *testing.T) {
	c := testCollector()
	srv, err := Start("127.0.0.1:0", Config{Registry: c.Registry})
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "tasks_total") {
		t.Fatalf("metrics via Start: status %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

func TestProgressLine(t *testing.T) {
	c := obs.NewCollector()
	for i := 0; i < 3; i++ {
		c.OnTask(obs.TaskEvent{Phase: obs.PhaseStarted, Part: i})
	}
	c.OnTask(obs.TaskEvent{Phase: obs.PhaseFinished, Part: 0})
	c.OnStage(obs.StageEvent{Name: "map"})
	var buf bytes.Buffer
	p := StartProgress(&buf, func() *obs.Collector { return c }, func() int64 { return 2_500_000 })
	want := "stages 1 done | tasks 2 running / 1 finished | 2.5 MB moved"
	if got := p.Line(); got != want {
		t.Fatalf("progress line %q, want %q", got, want)
	}
	// Stop draws the final state whether or not a tick has.
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "\r"+want) {
		t.Fatalf("progress output %q missing %q", out, want)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("progress output not newline-terminated: %q", out)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		0:             "0 B",
		999:           "999 B",
		1500:          "1.5 KB",
		2_500_000:     "2.5 MB",
		3_200_000_000: "3.2 GB",
	}
	for n, want := range cases {
		if got := humanBytes(n); got != want {
			t.Errorf("humanBytes(%d) = %q, want %q", n, got, want)
		}
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
