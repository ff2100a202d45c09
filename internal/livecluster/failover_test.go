package livecluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// gatedWordCount builds the same lineage as buildSkewedWordCount, but the
// map closure parks the first record of input partition 0 on a gate: it
// closes reached and then blocks until release closes. With leaf tasks
// round-robined over sites, partition 0 runs at worker 0, so tests can
// act mid-run — while worker 0 is provably inside a map task — before
// letting the job proceed. Only the first hit blocks (retried attempts
// run straight through), and the gate does not change the data, so the
// output still matches buildSkewedWordCount's local reference.
func gatedWordCount(parts, reduces, heavy int, reached, release chan struct{}) *rdd.RDD {
	var once atomic.Bool
	return wordCount(parts, reduces, heavy, func(p rdd.Pair) {
		if strings.HasPrefix(p.Key, "line0-") && once.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// finishedOn blocks until the collector has recorded a task of the given
// stage finishing on worker site.
func finishedOn(t *testing.T, events *obs.Collector, stage, site int) {
	t.Helper()
	history, ch, cancel := events.Subscribe(64)
	defer cancel()
	done := func(ev obs.Event) bool {
		return ev.Task != nil && ev.Task.Phase == obs.PhaseFinished && ev.Task.Stage == stage && ev.Task.Site == site
	}
	if slices.ContainsFunc(history, done) {
		return
	}
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev := <-ch:
			if done(ev) {
				return
			}
		case <-timeout:
			t.Fatalf("no stage %d task finished on worker %d", stage, site)
		}
	}
}

// TestWorkerDeathFailover kills a worker mid-run and checks the full
// recovery story: the killed worker is unhealthy on the same call and the
// survivors stay healthy, a survivor's push is in the running job's report
// the moment its map task has finished, the retry path re-places the killed
// worker's task on a healthy worker and completes the job with the
// reference output, and the accounting still conserves bytes — traffic
// matrix and class split each sum exactly to BytesOverTCP.
func TestWorkerDeathFailover(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	// The heavy partition puts the aggregator on worker 2, so the worker
	// killed below is a mapper and not the aggregator.
	job := gatedWordCount(6, 3, 2, reached, release)
	want := canon(rdd.CollectLocal(buildSkewedWordCount(6, 3, 2)))

	cluster, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	type result struct {
		out   []rdd.Pair
		stats *Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		out, stats, err := cluster.Run(pushed(job))
		done <- result{out, stats, err}
	}()

	// Worker 0 is inside map task 0's closure now, and healthy.
	<-reached
	if !cluster.workerHealthy(0) {
		t.Fatal("worker 0 unhealthy before it was killed")
	}
	cluster.workers[0].close()

	// Closed ⇒ unhealthy on the same call; the survivors are untouched.
	if cluster.workerHealthy(0) {
		t.Fatal("killed worker 0 still healthy")
	}
	for i := 1; i < 3; i++ {
		if !cluster.workerHealthy(i) {
			t.Fatalf("surviving worker %d reported unhealthy", i)
		}
	}
	// Worker 1's map tasks push to the aggregator while worker 0 is dead.
	// A task finishes after its push returned, and the push accounted its
	// bytes into the running job's stats as it happened: one read of the
	// report shows them.
	stats := cluster.CurrentStats()
	finishedOn(t, stats.Events, 0, 1)
	var sent float64
	for _, v := range stats.RunReport("", nil).TrafficMatrix[1] {
		sent += v
	}
	if sent == 0 {
		t.Fatal("worker 1's finished push is not in the running job's report")
	}

	close(release)
	res := <-done
	if res.err != nil {
		t.Fatalf("job did not survive worker death: %v", res.err)
	}
	if canon(res.out) != want {
		t.Fatal("failover output diverges from reference")
	}
	if res.stats.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (task 0 must have been retried)", res.stats.Retries)
	}
	checkConservation(t, res.stats)
}

// TestMidRunReportConvergence gates the reduce stage open and reads the run
// report once, mid-flight, without waiting: by then every map task has
// pushed, and every push accounted itself into the running job's stats as
// it happened, so the snapshot's push bytes, push count and traffic matrix
// are exactly the final report's — the reducers all sit on the aggregator
// and read its store, so the map stage is the job's only traffic — while
// its completion-only fields are still zero. On the way it pins the job's
// counts: six maps round-robin over three workers put two on the
// aggregator, whichever it is, so the other four push, each of the two
// senders' links dials its width once, and nothing is fetched.
func TestMidRunReportConvergence(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})

	// Block the first "fmt" invocation, which evaluates only after every
	// map task pushed.
	inputs := make([]rdd.InputPartition, 6)
	for p := 0; p < 6; p++ {
		var recs []rdd.Pair
		for i := 0; i < 40; i++ {
			recs = append(recs, rdd.KV(
				fmt.Sprintf("line%d-%d", p, i),
				fmt.Sprintf("alpha beta gamma-%d delta", (p+i)%7),
			))
		}
		inputs[p] = rdd.InputPartition{Host: 0, ModeledBytes: 1, Records: recs}
	}
	var once atomic.Bool
	build := func(gate bool) *rdd.RDD {
		return rdd.NewGraph().Input("text", inputs).
			MapMulti("split", func(p rdd.Pair, emit func(rdd.Pair)) {
				for _, w := range strings.Fields(p.Value.(string)) {
					emit(rdd.KV(w, 1))
				}
			}).
			ReduceByKey("count", 3, func(a, b rdd.Value) rdd.Value {
				return a.(int) + b.(int)
			}).
			Map("fmt", func(p rdd.Pair) rdd.Pair {
				if gate && once.CompareAndSwap(false, true) {
					close(reached)
					<-release
				}
				return rdd.KV(p.Key, fmt.Sprintf("n=%d", p.Value.(int)))
			})
	}
	want := canon(rdd.CollectLocal(build(false)))

	cluster, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	type result struct {
		out   []rdd.Pair
		stats *Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		out, stats, err := cluster.Run(pushed(build(true)))
		done <- result{out, stats, err}
	}()

	<-reached
	running := cluster.CurrentStats()
	midPushes := atomic.LoadInt64(&running.PushConnections)
	mid := running.RunReport("wordcount", nil)
	if mid.CompletionSec != 0 {
		t.Fatalf("mid-run CompletionSec = %v, want 0 until the job finishes", mid.CompletionSec)
	}

	close(release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if canon(res.out) != want {
		t.Fatal("output diverges from reference")
	}
	stats := res.stats
	checkConservation(t, stats)
	if width := int64(cluster.cfg.TasksPerWorker); stats.PushConnections != 4 || stats.FetchConnections != 0 || stats.Dials != 2*width {
		t.Fatalf("%d pushes, %d fetches, %d dials; want 4 pushes (maps at %v, aggregators %v), no fetch and %d dials",
			stats.PushConnections, stats.FetchConnections, stats.Dials, sitesOf(stats, 0), aggregators(stats), 2*width)
	}
	final := stats.RunReport("wordcount", nil)
	if final.CompletionSec <= 0 {
		t.Fatal("final report missing completion time")
	}
	if final.TrafficByClass["push"] != final.BytesTotal || final.BytesTotal == 0 {
		t.Fatalf("final traffic %v of %v bytes: the map stage's pushes should be all of it", final.TrafficByClass, final.BytesTotal)
	}
	if mid.TrafficByClass["push"] != final.TrafficByClass["push"] || midPushes != stats.PushConnections {
		t.Fatalf("mid-run report: %v push bytes over %d pushes; the map stage moved %v over %d",
			mid.TrafficByClass["push"], midPushes, final.TrafficByClass["push"], stats.PushConnections)
	}
	if !slices.EqualFunc(mid.TrafficMatrix, final.TrafficMatrix, slices.Equal) {
		t.Fatalf("mid-run traffic matrix %v, the map stage's %v", mid.TrafficMatrix, final.TrafficMatrix)
	}
}

// checkConservation holds a finished job's byte accounting against itself:
// the traffic matrix and the class split each add up to BytesOverTCP, and
// the uncompressed-equivalent total is no smaller.
func checkConservation(t *testing.T, stats *Stats) {
	t.Helper()
	if sum := matrixTotal(stats.trafficMatrix); sum != stats.BytesOverTCP {
		t.Errorf("matrix sums to %d, BytesOverTCP is %d", sum, stats.BytesOverTCP)
	}
	var byClass int64
	for _, v := range stats.bytesByClass {
		byClass += v
	}
	if byClass != stats.BytesOverTCP {
		t.Errorf("class split %v sums to %d, BytesOverTCP is %d", stats.bytesByClass, byClass, stats.BytesOverTCP)
	}
	if stats.BytesRaw < stats.BytesOverTCP {
		t.Errorf("BytesRaw %d < BytesOverTCP %d", stats.BytesRaw, stats.BytesOverTCP)
	}
}

// TestConservationAcrossCanceledJob runs a job on a warm cluster before and
// after one that is canceled mid-map-stage with pushes in flight. Each job's
// accounting adds up and is its own — the canceled job's bytes do not leak
// into the next one's — and the connections the canceled job held are back
// in their links: the job after it dials nothing.
func TestConservationAcrossCanceledJob(t *testing.T) {
	// One task per worker: a worker never needs a second connection to a
	// peer.
	cluster, err := New(Config{
		Workers: 2, TasksPerWorker: 1, Compression: codecFlate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	var before *Stats
	for i := 0; i < 2; i++ { // the first run dials, the second is the reference
		if _, before, err = cluster.Run(pushed(buildWordCount(6, 3))); err != nil {
			t.Fatal(err)
		}
		checkConservation(t, before)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := cluster.RunContext(ctx, pushed(buildSlowJob(8, 60*time.Millisecond))); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	canceled := cluster.CurrentStats()
	checkConservation(t, canceled)
	if canceled.PushConnections == 0 {
		t.Fatal("the canceled job pushed nothing before its deadline: the test would prove nothing")
	}

	out, next, err := cluster.Run(pushed(buildWordCount(6, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("output after the canceled job diverges from reference")
	}
	checkConservation(t, next)
	if next.Dials != 0 {
		t.Fatalf("job after the canceled one dialed %d connections", next.Dials)
	}
	if next.BytesOverTCP != before.BytesOverTCP || next.PushConnections != before.PushConnections {
		t.Fatalf("same job, different accounting: %d bytes over %d pushes after the canceled job, %d over %d before it",
			next.BytesOverTCP, next.PushConnections, before.BytesOverTCP, before.PushConnections)
	}
}
