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

func idle(context.Context) (*obs.Report, error) { return nil, nil }

// gateJob submits a job whose Run blocks until release is closed or its
// context is canceled, and waits for it to start so later submissions
// pile up behind it. canceled reports, once the job is done, whether it
// returned because its context was canceled.
func gateJob(t *testing.T, svc *service) (release chan struct{}, job *Job, canceled func() bool) {
	t.Helper()
	release = make(chan struct{})
	started := make(chan struct{})
	var byCtx bool
	job, err := svc.Submit(Submission{Tenant: "gatekeeper", Name: "gate",
		Run: func(ctx context.Context) (*obs.Report, error) {
			close(started)
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				byCtx = true
				return nil, ctx.Err()
			}
		}})
	if err != nil {
		t.Fatalf("submit gate: %v", err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("gate job never started")
	}
	return release, job, func() bool { <-job.Done(); return byCtx }
}

// TestDispatchInArrivalOrder pins the dispatch order: four jobs from two
// tenants queued behind a running gate run in the order they arrived, h1,
// h2, l1, l2 — the tenant labels them and does not reorder them.
func TestDispatchInArrivalOrder(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	release, _, _ := gateJob(t, svc)

	var mu sync.Mutex
	var order []string
	var queued []*Job
	for _, spec := range []struct{ tenant, name string }{
		{"heavy", "h1"}, {"heavy", "h2"}, {"light", "l1"}, {"light", "l2"},
	} {
		j, err := svc.Submit(Submission{Tenant: spec.tenant, Name: spec.name,
			Run: func(context.Context) (*obs.Report, error) {
				mu.Lock()
				order = append(order, spec.name)
				mu.Unlock()
				return nil, nil
			}})
		if err != nil {
			t.Fatalf("submit %s: %v", spec.name, err)
		}
		queued = append(queued, j)
	}
	close(release)
	for _, j := range queued {
		<-j.Done()
	}
	mu.Lock()
	defer mu.Unlock()
	if got, want := fmt.Sprint(order), "[h1 h2 l1 l2]"; got != want {
		t.Fatalf("dispatch order %s, want %s", got, want)
	}
}

// TestAdmissionQueueBound fills the queue to MaxQueue behind a running job
// and checks the next submission is rejected, and that the queue takes
// submissions again once it has room.
func TestAdmissionQueueBound(t *testing.T) {
	svc := New(Config{MaxQueue: 2})
	defer svc.Close()
	release, gate, _ := gateJob(t, svc)

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(Submission{Run: idle})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := svc.Submit(Submission{Run: idle}); !errors.Is(err, errRejected) {
		t.Fatalf("over-bound submit: err = %v, want a rejection", err)
	}
	close(release)
	<-gate.Done()
	for _, j := range queued {
		<-j.Done()
	}
	if _, err := svc.Submit(Submission{Run: idle}); err != nil {
		t.Fatalf("submit to a drained queue: %v", err)
	}
}

// TestCloseDrainsQueue closes a service with one running and two queued
// jobs: the running one has its context canceled, the queued ones are
// dropped without running, and later submissions are rejected.
func TestCloseDrainsQueue(t *testing.T) {
	svc := New(Config{})
	release, _, canceled := gateJob(t, svc)
	defer close(release)

	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(Submission{Run: func(context.Context) (*obs.Report, error) {
			t.Error("a queued job ran after Close")
			return nil, nil
		}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	svc.Close()
	if !canceled() {
		t.Fatal("the running job's context was not canceled by Close")
	}
	for _, j := range queued {
		<-j.Done()
	}
	if _, err := svc.Submit(Submission{Run: idle}); !errors.Is(err, errRejected) {
		t.Fatalf("post-Close submit: err = %v, want a rejection", err)
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
		var outlived bool
		job, err := svc.Submit(Submission{
			Run: func(ctx context.Context) (*obs.Report, error) {
				select {
				case <-time.After(200 * time.Millisecond):
					outlived = true
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
		<-job.Done()
		if outlived {
			t.Fatalf("round %d: the job ran to its end despite Close", i)
		}
	}
}
