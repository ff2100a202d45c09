package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wanshuffle/internal/core"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/workloads"
)

// simRun builds a fresh simulator Context per submission (a canceled sim
// engine is discarded, so contexts are never shared) and runs a scaled
// wordcount, validating its output before reporting.
func simRun(t *testing.T, record func(name string)) func(name string) RunFunc {
	return func(name string) RunFunc {
		return func(ctx context.Context) (*obs.Report, error) {
			record(name)
			w, err := workloads.ByName("wordcount")
			if err != nil {
				return nil, err
			}
			cctx := core.NewContext(core.Config{Scheme: core.SchemeAggShuffle, Seed: 7})
			inst := w.Make(cctx, workloads.Options{Seed: 7, Scale: 0.02})
			rep, err := cctx.SaveContext(ctx, inst.Target)
			if err != nil {
				return nil, err
			}
			if err := inst.Validate(rep.Records); err != nil {
				return nil, fmt.Errorf("validation: %w", err)
			}
			return rep.RunReport(name), nil
		}
	}
}

// TestJobServiceOverSimBackend is the sim-side acceptance test: four
// concurrent submissions from two tenants against the simulator backend,
// arrival-order dispatch, queue-bound rejection, and per-job run reports —
// the mirror of the live-cluster test in internal/livecluster.
func TestJobServiceOverSimBackend(t *testing.T) {
	svc := New(Config{MaxQueue: 4})
	defer svc.Close()

	var mu sync.Mutex
	var order []string
	record := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	mkRun := simRun(t, record)

	release := make(chan struct{})
	gate, err := svc.Submit(Submission{Tenant: "ops", Name: "gate",
		Run: func(ctx context.Context) (*obs.Report, error) {
			select {
			case <-release:
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, gate.ID(), StateRunning)

	var submitted []*Job
	for _, spec := range []struct{ tenant, name string }{
		{"heavy", "h1"}, {"heavy", "h2"}, {"light", "l1"}, {"light", "l2"},
	} {
		j, err := svc.Submit(Submission{Tenant: spec.tenant, Name: spec.name, Run: mkRun(spec.name)})
		if err != nil {
			t.Fatalf("submit %s: %v", spec.name, err)
		}
		submitted = append(submitted, j)
	}
	_, err = svc.Submit(Submission{Tenant: "light", Name: "l3", Run: mkRun("l3")})
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != ReasonQueueFull {
		t.Fatalf("over-bound submit: err = %v, want queue_full rejection", err)
	}

	close(release)
	gate.Wait()
	for _, j := range submitted {
		info := j.Wait()
		if info.State != StateDone {
			t.Fatalf("job %s finished %s (err=%q), want done", info.Name, info.State, info.Err)
		}
		rep, _ := svc.Report(j.ID())
		if rep == nil {
			t.Fatalf("job %s kept no run report", info.Name)
		}
		if rep.Backend != "sim" || rep.CompletionSec <= 0 {
			t.Fatalf("job %s report: backend %q completion %v", info.Name, rep.Backend, rep.CompletionSec)
		}
	}

	mu.Lock()
	got := fmt.Sprint(order)
	mu.Unlock()
	if want := "[h1 h2 l1 l2]"; got != want {
		t.Fatalf("dispatch order %s, want arrival order %s", got, want)
	}

	counts := map[State]int{}
	for _, info := range svc.List() {
		counts[info.State]++
	}
	if counts[StateDone] != 5 || counts[StateRejected] != 1 {
		t.Fatalf("state counts %v, want 5 done + 1 rejected", counts)
	}
}

// TestDeadlineCancelsSimJob bounds a simulator job whose map tasks burn
// wall-clock time: the engine's event loop must notice the expired
// context and the service must classify the outcome as canceled.
func TestDeadlineCancelsSimJob(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	job, err := svc.Submit(Submission{
		Tenant: "t", Name: "slow-sim", Deadline: 50 * time.Millisecond,
		Run: func(ctx context.Context) (*obs.Report, error) {
			cctx := core.NewContext(core.Config{Seed: 1})
			var recs []rdd.Pair
			for i := 0; i < 48; i++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("k%d", i%5), 1))
			}
			in := cctx.DistributeRecords("slow-in", recs, 24, 1e6)
			slow := in.Map("nap", func(p rdd.Pair) rdd.Pair {
				time.Sleep(10 * time.Millisecond)
				return p
			}).ReduceByKey("r", 4, func(a, b rdd.Value) rdd.Value {
				return a.(int) + b.(int)
			})
			rep, err := cctx.SaveContext(ctx, slow)
			if err != nil {
				return nil, err
			}
			return rep.RunReport("slow-sim"), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	info := job.Wait()
	if info.State != StateCanceled {
		t.Fatalf("slow sim job finished %s (err=%q), want canceled", info.State, info.Err)
	}
}
