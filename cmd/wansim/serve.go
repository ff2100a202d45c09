package main

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"wanshuffle/internal/jobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/telemetry"
	"wanshuffle/internal/workloads"
)

// runServe runs wansim as a multi-tenant job service: a jobs.Service taking
// named-workload submissions over HTTP on the telemetry endpoint until ctx
// is canceled (SIGINT/SIGTERM). Every round of every job is one backend.run,
// exactly as in a single run.
func runServe(ctx context.Context, o *options, stdout io.Writer) error {
	open, release, err := openBackend(o)
	if err != nil {
		return err
	}
	defer release()

	svc := jobs.New(jobs.Config{
		Weights:         o.weights,
		MaxQueue:        o.maxQueue,
		MaxQueuedBytes:  o.queuedBytes,
		DefaultDeadline: o.jobDeadline,
		Logger:          o.logger,
	})
	defer svc.Close()

	// cur is the backend of the running (else the last) job: /events and
	// /links follow it.
	var cur atomic.Pointer[backend]
	build := func(req jobs.SubmitRequest) (jobs.Submission, error) {
		w, err := workloads.ByName(req.Workload)
		if err != nil {
			return jobs.Submission{}, err
		}
		seed, scale, repeat := req.Seed, req.Scale, req.Repeat
		if seed == 0 {
			seed = o.seed
		}
		if scale <= 0 {
			scale = o.scale
		}
		if repeat == 0 {
			repeat = 1
		}
		if repeat < 0 {
			return jobs.Submission{}, fmt.Errorf("repeat must be positive, got %d", repeat)
		}
		// repeat chains rounds of the workload inside the one job,
		// re-checking the job's context between them so a deadline or
		// cancel lands at the next round boundary at the latest.
		run := func(ctx context.Context) (*obs.Report, error) {
			var last *obs.Report
			for i := 0; i < repeat; i++ {
				if err := ctx.Err(); err != nil {
					return last, fmt.Errorf("jobs: canceled after %d/%d rounds: %w", i, repeat, err)
				}
				b := open(seed)
				cur.Store(b)
				inst := w.Make(b.lineage, workloads.Options{Seed: seed, Scale: scale})
				_, rep, err := b.run(ctx, w.Name, inst.Target)
				if err != nil {
					return last, err
				}
				last = rep
			}
			return last, nil
		}
		return jobs.Submission{
			Tenant: req.Tenant, Name: w.Name,
			EstBytes: req.EstBytes, Run: run,
		}, nil
	}

	// The telemetry endpoint doubles as the submission API: /metrics serves
	// the service's jobs_* registry and /jobs the job surface.
	_, stopTelemetry, err := startTelemetry(o, stdout, telemetry.Config{
		Registry: svc.Registry,
		Jobs:     jobs.NewHandler(svc, build),
		Events: func() *obs.Collector {
			if b := cur.Load(); b != nil {
				return b.events()
			}
			return nil
		},
		Links: func() *obs.NetworkStats {
			if b := cur.Load(); b != nil {
				return b.links()
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	defer stopTelemetry()
	fmt.Fprintf(stdout, "job service: POST /jobs submits {\"tenant\",\"workload\",...}; %v scheme, -live=%t, queue bound %d\n", o.scheme, o.live, o.maxQueue)

	<-ctx.Done()
	fmt.Fprintln(stdout, "job service: shutdown signal; canceling the in-flight job and draining the queue")
	svc.Close()
	list := svc.List()
	counts := map[jobs.State]int{}
	for _, info := range list {
		counts[info.State]++
	}
	fmt.Fprintf(stdout, "job service: stopped after %d jobs (%d done, %d failed, %d canceled, %d rejected)\n",
		len(list), counts[jobs.StateDone], counts[jobs.StateFailed],
		counts[jobs.StateCanceled], counts[jobs.StateRejected])
	return nil
}
