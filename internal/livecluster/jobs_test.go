package livecluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/rdd"
)

// estimatorSamples sums a link estimator's transfer samples across all
// measured pairs.
func estimatorSamples(links *netobs.Estimator) int64 {
	var n int64
	for _, e := range links.Estimates() {
		n += e.Samples
	}
	return n
}

// TestBackToBackJobsOnSharedCluster runs three push jobs on one
// Cluster: every run must produce correct output from a clean per-job
// slate (its own run's shuffles, block stores reset), stay byte-conserving (matrix total ==
// BytesOverTCP), and re-choose its aggregator — while the netobs link
// estimator keeps accumulating across jobs, since link capacity outlives
// any one run.
func TestBackToBackJobsOnSharedCluster(t *testing.T) {
	cluster, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	var prevSamples int64
	for run := 0; run < 3; run++ {
		out, stats, err := cluster.Run(pushed(buildWordCount(6, 3)))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if canon(out) != want {
			t.Fatalf("run %d output diverges from reference", run)
		}
		if total := matrixTotal(stats.trafficMatrix); total != stats.BytesOverTCP {
			t.Fatalf("run %d: matrix total %d != BytesOverTCP %d", run, total, stats.BytesOverTCP)
		}
		if stats.BytesOverTCP <= 0 {
			t.Fatalf("run %d moved no bytes", run)
		}
		if len(stats.Events.Placements()) == 0 {
			t.Fatalf("run %d chose no aggregator for a push job", run)
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
		samples := estimatorSamples(cluster.links)
		if samples <= prevSamples {
			t.Fatalf("run %d: estimator samples %d did not grow past %d", run, samples, prevSamples)
		}
		prevSamples = samples
	}
}

// TestStatsQuiescentAfterRun runs back-to-back jobs and reads every
// exported Stats field, unsynchronized, the moment Run returns — what any
// caller does. Under -race this fails if anything the job set going — a
// link accounting an exchange, a server handler — still writes into the
// returned Stats: every writer must be done before Stats is published.
func TestStatsQuiescentAfterRun(t *testing.T) {
	cluster, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// A link dials its width once, the first time a job uses it, and never
	// again: forty jobs together dial no more than every link's width.
	var dials int64
	for run := 0; run < 40; run++ {
		_, stats, err := cluster.Run(pushed(buildWordCount(6, 3)))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		requests := stats.PushConnections + stats.FetchConnections
		dials += stats.Dials
		if width := int64(cluster.cfg.TasksPerWorker); requests == 0 || stats.Dials%width != 0 || dials > 4*3*width {
			t.Fatalf("run %d: %d dials for %d requests, %d dials so far over 12 links %d wide", run, stats.Dials, requests, dials, width)
		}
		if total := matrixTotal(stats.trafficMatrix); total != stats.BytesOverTCP || stats.BytesRaw < total {
			t.Fatalf("run %d: matrix total %d, BytesOverTCP %d, BytesRaw %d", run, total, stats.BytesOverTCP, stats.BytesRaw)
		}
		var byClass int64
		for _, b := range stats.bytesByClass {
			byClass += b
		}
		if byClass != stats.BytesOverTCP {
			t.Fatalf("run %d: class split sums to %d, BytesOverTCP %d", run, byClass, stats.BytesOverTCP)
		}
		if stats.scheme != "push" || stats.completionSec <= 0 || stats.Retries != 0 ||
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
	if total := matrixTotal(stats2.trafficMatrix); total != stats2.BytesOverTCP {
		t.Fatalf("post-cancel run: matrix total %d != BytesOverTCP %d", total, stats2.BytesOverTCP)
	}
}
