package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wanshuffle/internal/obs"
)

// testServer wires a Service behind the HTTP handler with a builder whose
// workload names choose the run behavior: "ok" completes, "block" waits
// for its context, "fail" errors, "unknown" is a builder error.
func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	build := func(req SubmitRequest) (Submission, error) {
		sub := Submission{Tenant: req.Tenant, Name: req.Workload}
		switch req.Workload {
		case "ok":
			sub.Run = func(ctx context.Context) (*obs.Report, error) {
				return &obs.Report{Workload: "ok"}, nil
			}
		case "block":
			sub.Run = func(ctx context.Context) (*obs.Report, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
		case "fail":
			sub.Run = func(ctx context.Context) (*obs.Report, error) {
				return nil, fmt.Errorf("workload broke")
			}
		default:
			return Submission{}, fmt.Errorf("unknown workload %q", req.Workload)
		}
		return sub, nil
	}
	srv := httptest.NewServer(NewHandler(svc, build))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postJob(t *testing.T, srv *httptest.Server, body string) (*http.Response, Info) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var info Info
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, info
}

func TestHTTPSubmitAndLifecycle(t *testing.T) {
	svc, srv := testServer(t, Config{})

	resp, info := postJob(t, srv, `{"tenant":"alice","workload":"ok"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if info.ID == "" || info.Tenant != "alice" {
		t.Fatalf("submit response %+v", info)
	}
	waitTerminal(t, svc, info.ID)

	// GET /jobs/{id}
	got := getJSON[Info](t, srv.URL+"/jobs/"+info.ID)
	if got.State != StateDone {
		t.Fatalf("job state %s, want done", got.State)
	}
	if !got.HasReport {
		t.Fatalf("job carries no report flag: %+v", got)
	}

	// GET /jobs/{id}/report
	rep := getJSON[obs.Report](t, srv.URL+"/jobs/"+info.ID+"/report")
	if rep.Workload != "ok" {
		t.Fatalf("report workload %q, want ok", rep.Workload)
	}

	// GET /jobs list
	list := getJSON[struct {
		Jobs []Info `json:"jobs"`
	}](t, srv.URL+"/jobs")
	if len(list.Jobs) != 1 || list.Jobs[0].ID != info.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestHTTPRejectionsAndErrors(t *testing.T) {
	_, srv := testServer(t, Config{MaxQueue: 1})

	// Builder error → 400.
	resp, _ := postJob(t, srv, `{"tenant":"a","workload":"unknown"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload status %d, want 400", resp.StatusCode)
	}
	// Malformed body → 400.
	resp, _ = postJob(t, srv, `{"tenant":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", resp.StatusCode)
	}
	// A body that is more or other than one SubmitRequest is refused, not
	// queued with the rest dropped.
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown field", `{"tenant":"a","workload":"ok","deadline":5}`, http.StatusBadRequest},
		{"trailing data", `{"tenant":"a","workload":"ok"} {"tenant":"b","workload":"ok"}`, http.StatusBadRequest},
		{"oversized body", `{"tenant":"a","workload":"ok"` + strings.Repeat(" ", 1<<20) + `}`, http.StatusRequestEntityTooLarge},
		// A deadline a time.Duration cannot hold would wrap around: to
		// 448.384 µs (canceled on dispatch), or negative (no deadline).
		{"deadline wraps to microseconds", `{"tenant":"a","workload":"ok","deadline_ms":18446744073710}`, http.StatusBadRequest},
		{"deadline wraps negative", `{"tenant":"a","workload":"ok","deadline_ms":9223372036855}`, http.StatusBadRequest},
	} {
		if resp, _ = postJob(t, srv, tc.body); resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// Unknown job → 404, on both snapshot and report routes.
	for _, path := range []string{"/jobs/j-9999", "/jobs/j-9999/report"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, r.StatusCode)
		}
	}

	// Fill the single queue slot behind a blocker, then overflow → 429
	// with the machine-readable reason.
	resp, blocker := postJob(t, srv, `{"tenant":"a","workload":"block"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker status %d", resp.StatusCode)
	}
	waitHTTPState(t, srv, blocker.ID, StateRunning)
	if resp, _ = postJob(t, srv, `{"tenant":"a","workload":"ok"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job status %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"a","workload":"ok"}`))
	if err != nil {
		t.Fatalf("overflow POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	var rej struct {
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil || rej.Reason != ReasonQueueFull {
		t.Fatalf("overflow body reason %q (err=%v), want queue_full", rej.Reason, err)
	}

	// Cancel the blocker over HTTP; it unblocks via ctx and reports
	// canceled.
	cresp, err := http.Post(srv.URL+"/jobs/"+blocker.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("cancel POST: %v", err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", cresp.StatusCode)
	}
	waitHTTPState(t, srv, blocker.ID, StateCanceled)
}

func TestHTTPWatchStream(t *testing.T) {
	svc, srv := testServer(t, Config{})
	resp, info := postJob(t, srv, `{"tenant":"a","workload":"ok"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	waitTerminal(t, svc, info.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/jobs?watch=1", nil)
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("watch GET: %v", err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	// History replays the whole arc; read the three lines then hang up.
	scanner := bufio.NewScanner(wresp.Body)
	var states []State
	for len(states) < 3 && scanner.Scan() {
		var ev Event
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("watch line %q: %v", scanner.Text(), err)
		}
		states = append(states, ev.State)
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("watch states %v, want %v", states, want)
	}
}

// TestHTTPMethodGuards sends each route a method it does not serve, with
// job j-0001 existing and holding a report, so a route that ignored the
// method would answer 200.
func TestHTTPMethodGuards(t *testing.T) {
	svc, srv := testServer(t, Config{})
	resp, info := postJob(t, srv, `{"tenant":"a","workload":"ok"}`)
	if resp.StatusCode != http.StatusAccepted || info.ID != "j-0001" {
		t.Fatalf("submit status %d, job %q", resp.StatusCode, info.ID)
	}
	waitTerminal(t, svc, info.ID)
	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/jobs/j-0001/cancel", "POST"},
		{http.MethodDelete, "/jobs", "GET, POST"},
		{http.MethodDelete, "/jobs/j-0001", "GET"},
		{http.MethodDelete, "/jobs/j-0001/report", "GET"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, Allow %q",
				tc.method, tc.path, resp.StatusCode, resp.Header.Get("Allow"), tc.allow)
		}
	}
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return v
}

func waitTerminal(t *testing.T, svc *Service, id string) Info {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if info.State.Terminal() {
			return info
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
	return Info{}
}

func waitHTTPState(t *testing.T, srv *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info := getJSON[Info](t, srv.URL+"/jobs/"+id)
		if info.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s over HTTP", id, want)
}
