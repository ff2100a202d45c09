package livecluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wanshuffle/internal/jobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// estimatorSamples sums the link estimator's transfer samples across all
// measured pairs.
func estimatorSamples(c *Cluster) int64 {
	var n int64
	for _, e := range c.links.Estimates() {
		n += e.Samples
	}
	return n
}

// TestBackToBackJobsOnSharedCluster runs three push-mode jobs on one
// Cluster: every run must produce correct output from a clean per-job
// slate (resetJobState), stay byte-conserving (matrix total ==
// BytesOverTCP), and re-choose its aggregator — while the netobs link
// estimator keeps accumulating across jobs, since link capacity outlives
// any one run.
func TestBackToBackJobsOnSharedCluster(t *testing.T) {
	cluster, err := New(Config{Workers: 4, Mode: ModePush})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	var prevSamples int64
	for run := 0; run < 3; run++ {
		out, stats, err := cluster.Run(buildWordCount(6, 3))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if canon(out) != want {
			t.Fatalf("run %d output diverges from reference", run)
		}
		if total := matrixTotal(stats.TrafficMatrix); total != stats.BytesOverTCP {
			t.Fatalf("run %d: matrix total %d != BytesOverTCP %d", run, total, stats.BytesOverTCP)
		}
		if stats.BytesOverTCP <= 0 {
			t.Fatalf("run %d moved no bytes", run)
		}
		if len(stats.Events.Placements()) == 0 {
			t.Fatalf("run %d chose no aggregator in push mode", run)
		}
		// Map outputs of THIS job only: 6 total, all on the aggregator —
		// stale outputs from the previous run must be gone.
		var shards int
		for _, n := range stats.ShardsByWorker {
			shards += n
		}
		if shards != 6 {
			t.Fatalf("run %d holds %d map outputs, want 6 (reset leaked state?)", run, shards)
		}
		samples := estimatorSamples(cluster)
		if samples <= prevSamples {
			t.Fatalf("run %d: estimator samples %d did not grow past %d", run, samples, prevSamples)
		}
		prevSamples = samples
	}
}

// TestStatsQuiescentAfterRun runs back-to-back jobs under a 1 ms heartbeat
// and reads every exported Stats field, unsynchronized, the moment Run
// returns — what any caller does. Under -race this fails if a ticker beat
// arriving after the end-of-run flush still merges into the returned
// Stats: the run must be detached before Stats is published.
func TestStatsQuiescentAfterRun(t *testing.T) {
	cluster, err := New(Config{Workers: 4, Mode: ModePush, HeartbeatInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// A link dials its width once, the first time a job uses it, and never
	// again: forty jobs together dial no more than every link's width.
	var dials int64
	for run := 0; run < 40; run++ {
		_, stats, err := cluster.Run(buildWordCount(6, 3))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		requests := stats.PushConnections + stats.FetchConnections + stats.SampleRequests
		dials += stats.Dials
		if width := int64(cluster.cfg.TasksPerWorker); requests == 0 || stats.Dials%width != 0 || dials > 4*3*width {
			t.Fatalf("run %d: %d dials for %d requests, %d dials so far over 12 links %d wide", run, stats.Dials, requests, dials, width)
		}
		if total := matrixTotal(stats.TrafficMatrix); total != stats.BytesOverTCP || stats.BytesRaw < total {
			t.Fatalf("run %d: matrix total %d, BytesOverTCP %d, BytesRaw %d", run, total, stats.BytesOverTCP, stats.BytesRaw)
		}
		var byClass int64
		for _, b := range stats.BytesByClass {
			byClass += b
		}
		if byClass != stats.BytesOverTCP {
			t.Fatalf("run %d: class split sums to %d, BytesOverTCP %d", run, byClass, stats.BytesOverTCP)
		}
		if stats.Mode != ModePush || stats.CompletionSec <= 0 || stats.Retries != 0 ||
			len(stats.StageSpans) != 2 || len(stats.ShardsByWorker) != 4 || len(stats.Events.Placements()) != 1 ||
			stats.Events.Counts().Finished == 0 {
			t.Fatalf("run %d: implausible stats %+v", run, stats.StageSpans)
		}
	}
}

// buildSlowJob is a shuffle job whose map tasks each sleep, so a stage
// reliably outlives a short deadline on a slot-starved cluster.
func buildSlowJob(parts int, nap time.Duration) *rdd.RDD {
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, parts)
	for p := 0; p < parts; p++ {
		inputs[p] = rdd.InputPartition{
			Host: 0, ModeledBytes: 1,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", p%3), 1)},
		}
	}
	slow := g.Input("slow-in", inputs).Map("nap", func(p rdd.Pair) rdd.Pair {
		time.Sleep(nap)
		return p
	})
	return slow.ReduceByKey("r", 2, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
}

// TestRunContextDeadlineStopsMidStage cancels a live job mid-map-stage
// via a context deadline and then reuses the same Cluster for a clean
// run: the cancellation must stop launching tasks, surface as
// context.DeadlineExceeded, and leave no residue that poisons the next
// job.
func TestRunContextDeadlineStopsMidStage(t *testing.T) {
	// 2 workers x 1 slot and 8 x 60ms map tasks: the map stage needs
	// >=240ms, so a 100ms deadline always fires inside it.
	cluster, err := New(Config{Workers: 2, TasksPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const parts = 8
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err = cluster.RunContext(ctx, buildSlowJob(parts, 60*time.Millisecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	stats := cluster.CurrentStats()
	if stats == nil {
		t.Fatal("no stats from the canceled job")
	}
	if n := stats.Events.Counts().Finished; n >= parts {
		t.Fatalf("%d tasks finished despite mid-stage deadline, want < %d", n, parts)
	}

	// Same cluster, next job: full run, correct output, conserved bytes.
	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	out, stats2, err := cluster.Run(buildWordCount(6, 3))
	if err != nil {
		t.Fatalf("post-cancel run: %v", err)
	}
	if canon(out) != want {
		t.Fatal("post-cancel output diverges from reference")
	}
	if total := matrixTotal(stats2.TrafficMatrix); total != stats2.BytesOverTCP {
		t.Fatalf("post-cancel run: matrix total %d != BytesOverTCP %d", total, stats2.BytesOverTCP)
	}
}

// TestJobServiceOverLiveCluster is the end-to-end acceptance test: a
// jobs.Service fronting one shared live Cluster takes five concurrent
// submissions from three tenants, runs them in arrival order, sheds the
// one past the queue bound, deadline-cancels a slow job mid-stage, and
// still runs the next job cleanly — with the /jobs table consistent
// throughout.
func TestJobServiceOverLiveCluster(t *testing.T) {
	cluster, err := New(Config{Workers: 2, TasksPerWorker: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	svc := jobs.New(jobs.Config{MaxQueue: 4})
	defer svc.Close()

	var mu sync.Mutex
	var order []string
	liveRun := func(name string) jobs.RunFunc {
		return func(ctx context.Context) (*obs.Report, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			_, stats, err := cluster.RunContext(ctx, buildWordCount(4, 2))
			if err != nil {
				return nil, err
			}
			return stats.RunReport(name, nil), nil
		}
	}

	// A gate job holds the cluster while the four tenant jobs queue, so
	// all of them are waiting when the gate lets go.
	release := make(chan struct{})
	gate, err := svc.Submit(jobs.Submission{Tenant: "ops", Name: "gate",
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := svc.Get(gate.ID()); info.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate never started")
		}
		time.Sleep(time.Millisecond)
	}

	var tenantJobs []*jobs.Job
	for _, spec := range []struct{ tenant, name string }{
		{"heavy", "h1"}, {"heavy", "h2"}, {"light", "l1"}, {"light", "l2"},
	} {
		j, err := svc.Submit(jobs.Submission{Tenant: spec.tenant, Name: spec.name, Run: liveRun(spec.name)})
		if err != nil {
			t.Fatalf("submit %s: %v", spec.name, err)
		}
		tenantJobs = append(tenantJobs, j)
	}

	// Queue is at its bound (4): the fifth concurrent submission is shed.
	_, err = svc.Submit(jobs.Submission{Tenant: "light", Name: "l3", Run: liveRun("l3")})
	var rej *jobs.ErrRejected
	if !errors.As(err, &rej) || rej.Reason != jobs.ReasonQueueFull {
		t.Fatalf("over-bound submit: err = %v, want queue_full rejection", err)
	}

	close(release)
	gate.Wait()
	for _, j := range tenantJobs {
		info := j.Wait()
		if info.State != jobs.StateDone {
			t.Fatalf("job %s finished %s (err=%q), want done", info.Name, info.State, info.Err)
		}
		rep, _ := svc.Report(j.ID())
		if rep == nil {
			t.Fatalf("job %s kept no run report", info.Name)
		}
		// Per-job reports stay byte-conserving through the service.
		var total float64
		for _, row := range rep.TrafficMatrix {
			for _, v := range row {
				total += v
			}
		}
		if total != rep.BytesTotal || total <= 0 {
			t.Fatalf("job %s report: matrix total %v != bytes_total %v", info.Name, total, rep.BytesTotal)
		}
	}

	// The four queued behind the gate run in the order they arrived.
	mu.Lock()
	got := fmt.Sprint(order)
	mu.Unlock()
	if want := "[h1 h2 l1 l2]"; got != want {
		t.Fatalf("dispatch order %s, want arrival order %s", got, want)
	}

	// A deadline-bound slow job cancels mid-stage on the live cluster...
	slow, err := svc.Submit(jobs.Submission{
		Tenant: "light", Name: "slow", Deadline: 100 * time.Millisecond,
		Run: func(ctx context.Context) (*obs.Report, error) {
			_, _, err := cluster.RunContext(ctx, buildSlowJob(8, 60*time.Millisecond))
			return nil, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	if info := slow.Wait(); info.State != jobs.StateCanceled {
		t.Fatalf("slow job finished %s (err=%q), want canceled", info.State, info.Err)
	}
	if n := cluster.CurrentStats().Events.Counts().Finished; n >= 8 {
		t.Fatalf("%d tasks finished despite the deadline, want < 8", n)
	}

	// ...and the same cluster serves the next queued job cleanly.
	last, err := svc.Submit(jobs.Submission{Tenant: "heavy", Name: "after", Run: liveRun("after")})
	if err != nil {
		t.Fatal(err)
	}
	if info := last.Wait(); info.State != jobs.StateDone {
		t.Fatalf("post-cancel job finished %s (err=%q), want done", info.State, info.Err)
	}

	// /jobs lists every submission once, in a consistent terminal state,
	// and each dispatched one with its queue wait and run time.
	counts := map[jobs.State]int{}
	dispatched := 0
	for _, info := range svc.List() {
		if !info.State.Terminal() {
			t.Fatalf("job %s not terminal: %s", info.ID, info.State)
		}
		counts[info.State]++
		if info.QueueWaitSec > 0 && info.RunSec > 0 {
			dispatched++
		}
	}
	wantCounts := map[jobs.State]int{
		jobs.StateDone: 6, jobs.StateCanceled: 1, jobs.StateRejected: 1,
	}
	if fmt.Sprint(counts) != fmt.Sprint(wantCounts) || dispatched != 7 {
		t.Fatalf("state counts %v with %d dispatched, want %v with 7", counts, dispatched, wantCounts)
	}
}
