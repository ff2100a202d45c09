package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"wanshuffle/internal/jobs"
	"wanshuffle/internal/obs"
)

// submitJob posts one workload submission (a jobs.SubmitRequest or raw
// JSON) and decodes the accepted job's snapshot.
func submitJob(t *testing.T, url string, req any) jobs.Info {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d: %s", resp.StatusCode, raw)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// taskCount sums the per-stage task counts of a run report's tasks
// section.
func taskCount(rep *obs.Report) int {
	n := 0
	for _, ts := range rep.Tasks {
		n += ts.Count
	}
	return n
}

// TestServeModeJobService drives the full serve-mode loop over each
// backend: HTTP submissions from two tenants run to completion with
// retained reports that carry the traced sections (tasks, critical_path)
// whichever backend ran them, a malformed request is a 400, a deadline
// cancels a job without poisoning the next, /jobs lists every submission
// in its final state, and a real SIGINT drains the service and returns
// cleanly.
func TestServeModeJobService(t *testing.T) {
	for _, backend := range []string{"sim", "live"} {
		t.Run(backend, func(t *testing.T) { testServeModeJobService(t, backend) })
	}
}

func testServeModeJobService(t *testing.T, backend string) {
	args := []string{
		"-serve", "-telemetry-addr", "127.0.0.1:0", "-max-queue", "4",
		"-scale", "0.02", "-seed", "1",
	}
	if backend == "live" {
		args = append(args, "-live")
	}
	w := goWansim(func(stdout io.Writer) error { return run(args, stdout) })
	url := w.url(t)

	h := submitJob(t, url, jobs.SubmitRequest{Tenant: "heavy", Workload: "wordcount"})
	l := submitJob(t, url, jobs.SubmitRequest{Tenant: "light", Workload: "wordcount"})

	// A request the service cannot run as written is the caller's fault,
	// not a service failure.
	for _, body := range []string{
		`{"tenant":"light","workload":"nope"}`,
		`{"tenant":"light","workload":"wordcount","repeat":-1}`,
		`{"tenant":"light","workload":"wordcount","deadline_ms":-5}`,
		`{"tenant":"light","workload":"wordcount","scale":-1}`,
	} {
		resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /jobs %s: %d, want 400", body, resp.StatusCode)
		}
	}

	// doneReport waits for a job to finish and returns its retained report,
	// which must carry the traced sections on either backend.
	doneReport := func(id string) *obs.Report {
		t.Helper()
		waitTest(t, fmt.Sprintf("job %s done", id), func() bool {
			var info jobs.Info
			getJSONTest(t, url+"/jobs/"+id, &info)
			if info.State == jobs.StateFailed {
				t.Fatalf("job %s failed: %s", id, info.Err)
			}
			return info.State == jobs.StateDone
		})
		var rep obs.Report
		getJSONTest(t, url+"/jobs/"+id+"/report", &rep)
		if rep.Backend != backend {
			t.Fatalf("job %s report backend = %q, want %q", id, rep.Backend, backend)
		}
		if taskCount(&rep) == 0 || rep.CriticalPath == nil || len(rep.CriticalPath.Steps) == 0 {
			t.Fatalf("job %s report lacks tasks (%d) or critical_path (%v)", id, taskCount(&rep), rep.CriticalPath)
		}
		return &rep
	}
	first := doneReport(h.ID)
	doneReport(l.ID)
	// A body naming seed 0 runs seed 0, not the service's -seed 1 that h ran.
	if backend == "sim" {
		_, seed0 := simRun(t, []string{"-scale", "0.02"}, 0, 0)
		z := submitJob(t, url, json.RawMessage(`{"tenant":"light","workload":"wordcount","seed":0}`))
		if got := doneReport(z.ID).CompletionSec; got != seed0.CompletionSec || got == first.CompletionSec {
			t.Fatalf("seed 0 job completed at %v s, want seed 0's %v (seed 1's is %v)", got, seed0.CompletionSec, first.CompletionSec)
		}
	}

	// A repeated job outlives its deadline and lands canceled, not failed;
	// the service then runs the next submission cleanly.
	slow := submitJob(t, url, jobs.SubmitRequest{
		Tenant: "light", Workload: "wordcount", Repeat: 10000, DeadlineMS: 200,
	})
	waitTest(t, "repeated job canceled", func() bool {
		var info jobs.Info
		getJSONTest(t, url+"/jobs/"+slow.ID, &info)
		if info.State == jobs.StateFailed || info.State == jobs.StateDone {
			t.Fatalf("repeated job finished %s (err=%q), want canceled", info.State, info.Err)
		}
		return info.State == jobs.StateCanceled
	})
	after := submitJob(t, url, jobs.SubmitRequest{Tenant: "heavy", Workload: "wordcount"})
	// The same workload traces the same number of tasks every time: a
	// report holding more would be carrying an earlier job's spans (the
	// live cluster's recorder outlives its jobs, and the canceled job left
	// a partial trace behind).
	if got, want := taskCount(doneReport(after.ID)), taskCount(first); got != want {
		t.Fatalf("the job after the canceled one traced %d tasks, the first job %d: spans leak across jobs", got, want)
	}

	// The job table is the service's one record of its jobs: the rejected
	// bodies never became jobs, and each accepted one is listed once.
	var list struct{ Jobs []jobs.Info }
	getJSONTest(t, url+"/jobs", &list)
	states := map[jobs.State]int{}
	for _, j := range list.Jobs {
		states[j.State]++
	}
	done := 3
	if backend == "sim" {
		done++ // the seed-0 job
	}
	if want := map[jobs.State]int{jobs.StateDone: done, jobs.StateCanceled: 1}; !reflect.DeepEqual(states, want) {
		t.Fatalf("/jobs lists states %v, want %v: %+v", states, want, list.Jobs)
	}

	// Graceful shutdown rides the real signal path: SIGINT to our own
	// process lands in run()'s signal.NotifyContext, not the test binary.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := w.wait(t); err != nil {
		t.Fatalf("serve mode exited with error: %v", err)
	}
	if s := w.out.String(); !strings.Contains(s, "draining the queue") || !strings.Contains(s, "job service: stopped") {
		t.Fatalf("missing shutdown narration:\n%s", s)
	}
}

// TestServeTelemetryFollowsCurrentJob holds -serve to a single run's
// telemetry plane: GET / lists /report and /trace beside /jobs; /report
// answers 503 before the first job, serves the running job's in-progress
// snapshot, and once the last job is done byte-equals its
// /jobs/{id}/report; /metrics is that report's report_* gauges.
func TestServeTelemetryFollowsCurrentJob(t *testing.T) {
	for _, backend := range []string{"sim", "live"} {
		t.Run(backend, func(t *testing.T) { testServeTelemetryFollowsCurrentJob(t, backend) })
	}
}

func testServeTelemetryFollowsCurrentJob(t *testing.T, backend string) {
	args := []string{"-serve", "-telemetry-addr", "127.0.0.1:0", "-scale", "0.02", "-seed", "1"}
	if backend == "live" {
		args = append(args, "-live")
	}
	url := startWansim(t, args...).url(t)

	_, index := httpGet(t, url+"/")
	for _, endpoint := range []string{"GET /metrics", "GET /report", "GET /events", "GET /trace", "GET /jobs"} {
		if !strings.Contains(string(index), endpoint) {
			t.Fatalf("GET / does not list %s:\n%s", endpoint, index)
		}
	}
	for _, path := range []string{"/report", "/metrics", "/trace"} {
		if status, body := httpGet(t, url+path); status != http.StatusServiceUnavailable {
			t.Fatalf("GET %s before the first job: %d, want 503: %s", path, status, body)
		}
	}

	// A job of many rounds is running for as long as the test needs: its
	// /report is a snapshot, which has no completion time yet.
	long := submitJob(t, url, jobs.SubmitRequest{Tenant: "t", Workload: "wordcount", Repeat: 100000})
	waitTest(t, "the running job's snapshot on /report", func() bool {
		status, body := httpGet(t, url+"/report")
		if status != http.StatusOK {
			return false
		}
		rep, err := obs.DecodeReport(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("/report: %v", err)
		}
		if rep.Backend != backend || rep.Workload != long.Name {
			t.Fatalf("/report is %s's %s, want the running job's: %s's %s", rep.Backend, rep.Workload, backend, long.Name)
		}
		return rep.CompletionSec == 0
	})
	resp, err := http.Post(url+"/jobs/"+long.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	last := submitJob(t, url, jobs.SubmitRequest{Tenant: "t", Workload: "sort"})
	waitTest(t, "the last job done", func() bool {
		var info jobs.Info
		getJSONTest(t, url+"/jobs/"+last.ID, &info)
		if info.State.Terminal() && info.State != jobs.StateDone {
			t.Fatalf("job %s ended %s: %s", last.ID, info.State, info.Err)
		}
		return info.State == jobs.StateDone
	})
	status, served := httpGet(t, url+"/report")
	_, kept := httpGet(t, url+"/jobs/"+last.ID+"/report")
	if status != http.StatusOK || !bytes.Equal(served, kept) {
		t.Fatalf("after the last job /report (%d) is not its /jobs/%s/report:\n%s\nwant:\n%s", status, last.ID, served, kept)
	}
	rep, err := obs.DecodeReport(bytes.NewReader(kept))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := obs.WriteProm(&want, obs.ReportPoints(rep)); err != nil {
		t.Fatal(err)
	}
	if _, metrics := httpGet(t, url+"/metrics"); !bytes.Equal(metrics, want.Bytes()) {
		t.Fatalf("/metrics is not the last job's report gauges:\n%s\nwant:\n%s", metrics, want.Bytes())
	}
	if status, _ := httpGet(t, url+"/trace"); status != http.StatusOK {
		t.Fatalf("GET /trace after the last job: %d, want its spans", status)
	}
}

// TestServeFlagValidation pins the job-service flag errors.
func TestServeFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"serve without telemetry", []string{"-serve"}, "-serve requires -telemetry-addr"},
		{"zero max queue", []string{"-max-queue", "0"}, "-max-queue must be positive"},
		{"negative max queue", []string{"-max-queue", "-2"}, "-max-queue must be positive"},
		{"serve live manual scheme", []string{"-serve", "-telemetry-addr", "127.0.0.1:0", "-live", "-scheme", "manual"}, "-live supports schemes spark and agg"},
		{"serve live random aggregator", []string{"-serve", "-telemetry-addr", "127.0.0.1:0", "-live", "-aggregator", "random"}, "not supported with -live"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"-workload", "wordcount", "-scale", "0.01"}, tc.args...), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// getJSONTest fetches and decodes a JSON endpoint.
func getJSONTest(t *testing.T, url string, into any) {
	t.Helper()
	status, body := httpGet(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, status, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
