package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wanshuffle/internal/obs"
)

// gateJob submits a job whose Run blocks until release is closed, and
// waits for it to reach running so later submissions pile up behind it.
func gateJob(t *testing.T, svc *Service, tenant string) (release chan struct{}, job *Job) {
	t.Helper()
	release = make(chan struct{})
	job, err := svc.Submit(Submission{
		Tenant: tenant,
		Name:   "gate",
		Run: func(ctx context.Context) (*obs.Report, error) {
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatalf("submit gate: %v", err)
	}
	waitState(t, svc, job.ID(), StateRunning)
	return release, job
}

func waitState(t *testing.T, svc *Service, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := svc.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if info.State == want {
			return
		}
		if info.State.Terminal() {
			t.Fatalf("job %s terminal in state %s, wanted %s (err=%q)", id, info.State, want, info.Err)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// counterValue digs one counter's (or gauge's) value out of a registry
// snapshot.
func counterValue(reg *obs.Registry, name string, labels map[string]string) float64 {
	for _, p := range reg.Snapshot() {
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p.Value
		}
	}
	return 0
}

// TestDispatchInArrivalOrder pins the dispatch order: four jobs from two
// tenants queued behind a running gate run in the order they arrived, h1,
// h2, l1, l2 — the tenant labels them and does not reorder them.
func TestDispatchInArrivalOrder(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()

	release, gate := gateJob(t, svc, "gatekeeper")

	var mu sync.Mutex
	var order []string
	mkRun := func(name string) RunFunc {
		return func(ctx context.Context) (*obs.Report, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}
	}
	var jobs []*Job
	for _, spec := range []struct{ tenant, name string }{
		{"heavy", "h1"}, {"heavy", "h2"}, {"light", "l1"}, {"light", "l2"},
	} {
		j, err := svc.Submit(Submission{Tenant: spec.tenant, Name: spec.name, Run: mkRun(spec.name)})
		if err != nil {
			t.Fatalf("submit %s: %v", spec.name, err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	gate.Wait()
	for _, j := range jobs {
		if info := j.Wait(); info.State != StateDone {
			t.Fatalf("job %s finished %s (err=%q), want done", info.Name, info.State, info.Err)
		}
	}
	want := []string{"h1", "h2", "l1", "l2"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	if got := counterValue(svc.Registry(), "jobs_done_total", map[string]string{"tenant": "heavy"}); got != 2 {
		t.Fatalf("jobs_done_total{tenant=heavy} = %v, want 2", got)
	}
}

// TestAdmissionQueueBound fills the queue to MaxQueue and checks the next
// submission is shed with a typed queue_full rejection that still shows
// up in the job table and metrics.
func TestAdmissionQueueBound(t *testing.T) {
	svc := New(Config{MaxQueue: 2})
	defer svc.Close()
	release, _ := gateJob(t, svc, "a")

	idle := func(ctx context.Context) (*obs.Report, error) { return nil, nil }
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(Submission{Tenant: "a", Run: idle}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := svc.Submit(Submission{Tenant: "b", Run: idle})
	var rej *ErrRejected
	if !errors.As(err, &rej) {
		t.Fatalf("over-bound submit: err = %v, want *ErrRejected", err)
	}
	if rej.Reason != ReasonQueueFull || rej.Limit != 2 {
		t.Fatalf("rejection = %+v, want queue_full with limit 2", rej)
	}
	var rejected int
	for _, info := range svc.List() {
		if info.State == StateRejected {
			rejected++
			if info.Err == "" {
				t.Fatalf("rejected job has no error message: %+v", info)
			}
		}
	}
	if rejected != 1 {
		t.Fatalf("%d rejected jobs listed, want 1", rejected)
	}
	if got := counterValue(svc.Registry(), "jobs_rejected_total",
		map[string]string{"tenant": "b", "reason": ReasonQueueFull}); got != 1 {
		t.Fatalf("jobs_rejected_total{b,queue_full} = %v, want 1", got)
	}
	close(release)
}

// TestDeadlineCancelsJob gives a blocking job a short deadline and checks
// it lands in canceled, not failed.
func TestDeadlineCancelsJob(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	job, err := svc.Submit(Submission{
		Tenant:   "t",
		Name:     "slow",
		Deadline: 20 * time.Millisecond,
		Run: func(ctx context.Context) (*obs.Report, error) {
			<-ctx.Done()
			return nil, fmt.Errorf("run aborted: %w", ctx.Err())
		},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	info := job.Wait()
	if info.State != StateCanceled {
		t.Fatalf("deadline job finished %s (err=%q), want canceled", info.State, info.Err)
	}
	if info.DeadlineSec == 0 {
		t.Fatalf("info carries no deadline: %+v", info)
	}
	if got := counterValue(svc.Registry(), "jobs_canceled_total", map[string]string{"tenant": "t"}); got != 1 {
		t.Fatalf("jobs_canceled_total = %v, want 1", got)
	}
}

// TestCancelQueuedAndRunning cancels one job in each non-terminal state
// and checks the service keeps serving afterwards.
func TestCancelQueuedAndRunning(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	release, gate := gateJob(t, svc, "t")

	queued, err := svc.Submit(Submission{Tenant: "t", Name: "queued-victim",
		Run: func(ctx context.Context) (*obs.Report, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if err := svc.Cancel(queued.ID()); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if info := queued.Wait(); info.State != StateCanceled {
		t.Fatalf("queued victim finished %s, want canceled", info.State)
	}
	if depth := counterValue(svc.Registry(), "jobs_queue_depth", nil); depth != 0 {
		t.Fatalf("jobs_queue_depth = %v after canceling the only queued job", depth)
	}

	// Cancel the running gate; its Run returns ctx.Err().
	svc.Cancel(gate.ID())
	if info := gate.Wait(); info.State != StateCanceled {
		t.Fatalf("running victim finished %s (err=%q), want canceled", info.State, info.Err)
	}
	close(release) // no-op, gate already unblocked via ctx

	// The service still runs jobs after both cancellations.
	after, err := svc.Submit(Submission{Tenant: "t", Name: "after",
		Run: func(ctx context.Context) (*obs.Report, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("submit after cancels: %v", err)
	}
	if info := after.Wait(); info.State != StateDone {
		t.Fatalf("post-cancel job finished %s, want done", info.State)
	}
	if err := svc.Cancel("j-9999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

// TestFailedJobClassification keeps genuine run errors out of canceled.
func TestFailedJobClassification(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	job, err := svc.Submit(Submission{Tenant: "t",
		Run: func(ctx context.Context) (*obs.Report, error) {
			return nil, errors.New("shuffle exploded")
		}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	info := job.Wait()
	if info.State != StateFailed || info.Err != "shuffle exploded" {
		t.Fatalf("info = %+v, want failed/shuffle exploded", info)
	}
	if got := counterValue(svc.Registry(), "jobs_failed_total", map[string]string{"tenant": "t"}); got != 1 {
		t.Fatalf("jobs_failed_total = %v, want 1", got)
	}
}

// TestLifecycleEvents checks the event stream carries the full
// queued→running→done arc, both to Subscribe history and a live
// subscriber.
func TestLifecycleEvents(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	_, ch, cancel := svc.Subscribe(16)
	defer cancel()

	job, err := svc.Submit(Submission{Tenant: "t", Name: "arc",
		Run: func(ctx context.Context) (*obs.Report, error) { return &obs.Report{}, nil }})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	job.Wait()

	want := []State{StateQueued, StateRunning, StateDone}
	var got []State
	timeout := time.After(5 * time.Second)
	for len(got) < len(want) {
		select {
		case ev := <-ch:
			got = append(got, ev.State)
		case <-timeout:
			t.Fatalf("events so far %v, want %v", got, want)
		}
	}
	for i, st := range want {
		if got[i] != st {
			t.Fatalf("event %d = %s, want %s (all: %v)", i, got[i], st, got)
		}
	}
	history, _, cancel2 := svc.Subscribe(1)
	cancel2()
	if len(history) != len(want) {
		t.Fatalf("history has %d events, want %d", len(history), len(want))
	}
	if info := job.Info(); !info.HasReport {
		t.Fatalf("job retained no report: %+v", info)
	}
}

// TestCloseDrainsQueue closes a service with one running and two queued
// jobs: the queued ones turn canceled, the running one is context-canceled,
// and later submissions are shed with the closed reason.
func TestCloseDrainsQueue(t *testing.T) {
	svc := New(Config{})
	release, gate := gateJob(t, svc, "t")
	defer close(release)

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(Submission{Tenant: "t",
			Run: func(ctx context.Context) (*obs.Report, error) { return nil, nil }})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	svc.Close()
	if info := gate.Wait(); info.State != StateCanceled {
		t.Fatalf("running job after Close: %s, want canceled", info.State)
	}
	for i, j := range queued {
		if info := j.Wait(); info.State != StateCanceled {
			t.Fatalf("queued job %d after Close: %s, want canceled", i, info.State)
		}
	}
	_, err := svc.Submit(Submission{Tenant: "t",
		Run: func(ctx context.Context) (*obs.Report, error) { return nil, nil }})
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != ReasonClosed {
		t.Fatalf("post-Close submit: err = %v, want closed rejection", err)
	}
	svc.Close() // idempotent
}

// TestCloseCancelsJobBeingDispatched closes a service at varying instants
// around the dispatch of its one job — still queued, just taken off the
// queue, or running — and checks Close cancels the job wherever it is
// instead of waiting out its run.
func TestCloseCancelsJobBeingDispatched(t *testing.T) {
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		svc := New(Config{})
		job, err := svc.Submit(Submission{Tenant: "t",
			Run: func(ctx context.Context) (*obs.Report, error) {
				select {
				case <-time.After(200 * time.Millisecond):
					return nil, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}})
		if err != nil {
			t.Fatalf("round %d: submit: %v", i, err)
		}
		for spin := time.Now(); time.Since(spin) < time.Duration(i%40)*time.Microsecond; {
		}
		start := time.Now()
		svc.Close()
		if took := time.Since(start); took > 150*time.Millisecond {
			t.Fatalf("round %d: Close took %v: it waited for the job instead of canceling it", i, took)
		}
		if info := job.Wait(); info.State != StateCanceled {
			t.Fatalf("round %d: job ended %s (err=%q), want canceled", i, info.State, info.Err)
		}
	}
}

// TestQueueWaitMetric checks the queue-wait histogram sees one sample per
// dispatched job and the depth gauge returns to zero.
func TestQueueWaitMetric(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	release, gate := gateJob(t, svc, "t")
	j, err := svc.Submit(Submission{Tenant: "t",
		Run: func(ctx context.Context) (*obs.Report, error) { return nil, nil }})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	close(release)
	gate.Wait()
	j.Wait()
	var waitCount, depth float64 = -1, -1
	for _, p := range svc.Registry().Snapshot() {
		switch p.Name {
		case "jobs_queue_wait_sec":
			waitCount = float64(p.Count)
		case "jobs_queue_depth":
			depth = p.Value
		}
	}
	if waitCount != 2 {
		t.Fatalf("jobs_queue_wait_sec count = %v, want 2", waitCount)
	}
	if depth != 0 {
		t.Fatalf("jobs_queue_depth = %v, want 0", depth)
	}
}
