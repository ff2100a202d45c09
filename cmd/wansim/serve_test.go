package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
// cancels a job without poisoning the next, /metrics carries the jobs_*
// series, and a real SIGINT drains the service and returns cleanly.
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

	_, metrics := httpGet(t, url+"/metrics")
	for _, series := range []string{"jobs_submitted_total", "jobs_done_total", "jobs_queue_depth"} {
		if !strings.Contains(string(metrics), series) {
			t.Fatalf("/metrics missing %s:\n%s", series, metrics)
		}
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
