package livecluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// gatedWordCount builds the same lineage as buildWordCount, but the map
// closure parks the first record of input partition 0 on a gate: it closes
// reached and then blocks until release closes. With leaf tasks
// round-robined over sites, partition 0 runs at worker 0, so tests can
// act mid-run — while worker 0 is provably inside a map task — before
// letting the job proceed. Only the first hit blocks (retried attempts
// run straight through), and the gate does not change the data, so the
// output still matches buildWordCount's local reference.
func gatedWordCount(parts, reduces int, reached, release chan struct{}) *rdd.RDD {
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, parts)
	for p := 0; p < parts; p++ {
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
	in := g.Input("text", inputs)
	words := in.FlatMap("split", func(p rdd.Pair) []rdd.Pair {
		if strings.HasPrefix(p.Key, "line0-") && once.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
		fields := strings.Fields(p.Value.(string))
		out := make([]rdd.Pair, len(fields))
		for i, w := range fields {
			out[i] = rdd.KV(w, 1)
		}
		return out
	})
	counts := words.ReduceByKey("count", reduces, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
	return counts.Map("fmt", func(p rdd.Pair) rdd.Pair {
		return rdd.KV(p.Key, fmt.Sprintf("n=%d", p.Value.(int)))
	})
}

// matrixSum adds every cell of the stats' traffic matrix. Call only when
// no writer is active (after Run returned) or on a RunReport snapshot.
func matrixSum(m [][]int64) int64 {
	var sum int64
	for _, row := range m {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

func reportMatrixSum(m [][]float64) float64 {
	var sum float64
	for _, row := range m {
		for _, v := range row {
			sum += v
		}
	}
	return sum
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

// TestHeartbeatFailover kills a worker mid-run and checks the full
// recovery story: the driver marks the worker stale (both the closed and
// the heartbeat-age paths), the retry path re-places its task on a healthy
// worker and completes the job with the reference output, and the
// incremental heartbeat accounting still conserves bytes — traffic matrix
// and class split each sum exactly to BytesOverTCP.
func TestHeartbeatFailover(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	job := gatedWordCount(6, 3, reached, release)
	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))

	stale := 100 * time.Millisecond
	cluster, err := New(Config{
		Workers: 3, Mode: ModePush, Aggregators: []int{2},
		HeartbeatInterval: 15 * time.Millisecond, StaleAfter: stale,
	})
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
		out, stats, err := cluster.Run(job)
		done <- result{out, stats, err}
	}()

	// Worker 0 is inside map task 0's closure now. While it is healthy the
	// stale set must be empty.
	<-reached
	if s := cluster.StaleWorkers(); len(s) != 0 {
		t.Fatalf("healthy cluster reports stale workers %v", s)
	}
	cluster.KillWorker(0)

	// Closed ⇒ immediately unhealthy; its heartbeats also stop, so the
	// age-based staleness must trip once StaleAfter passes.
	if s := cluster.StaleWorkers(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("after kill, stale workers = %v, want [0]", s)
	}
	waitFor(t, "worker 0 heartbeat age to exceed StaleAfter", func() bool {
		return cluster.HeartbeatAges()[0] > stale
	})
	for i := 1; i < 3; i++ {
		if !cluster.workerHealthy(i) {
			t.Fatalf("surviving worker %d reported unhealthy", i)
		}
	}

	// The liveness gauge publishes the stale age for scrapers.
	cluster.RefreshLiveness()
	reg := cluster.CurrentStats().Events.Registry()
	if age := reg.Gauge("worker_heartbeat_age_sec", obs.Labels{"worker": "w0"}).Value(); age <= stale.Seconds() {
		t.Fatalf("worker_heartbeat_age_sec{worker=w0} = %v, want > %v", age, stale.Seconds())
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

	// Byte conservation across the incremental heartbeat path.
	if sum := matrixSum(res.stats.TrafficMatrix); sum != res.stats.BytesOverTCP {
		t.Fatalf("traffic matrix sums to %d, want BytesOverTCP = %d", sum, res.stats.BytesOverTCP)
	}
	var classSum int64
	for _, v := range res.stats.BytesByClass {
		classSum += v
	}
	if classSum != res.stats.BytesOverTCP {
		t.Fatalf("class split sums to %d, want BytesOverTCP = %d", classSum, res.stats.BytesOverTCP)
	}
	// The retried attempt ran somewhere other than the dead worker, and
	// heartbeats actually flowed from the survivors.
	if reg.Counter("heartbeats_total", obs.Labels{"worker": "w1"}).Value() == 0 &&
		reg.Counter("heartbeats_total", obs.Labels{"worker": "w2"}).Value() == 0 {
		t.Fatal("no heartbeats merged from surviving workers")
	}
}

// TestMidRunReportConvergence gates the reduce stage open and scrapes the
// run report mid-flight: by then the map stage's pushes have happened, so
// once heartbeats merge, the snapshot must show bytes — and its matrix
// must sum exactly to the bytes reported so far, with completion-only
// fields still zero. The final report then dominates the mid-run one.
// With heartbeats off nothing merges before the job ends, and the mid-run
// snapshot is consistent the empty way.
func TestMidRunReportConvergence(t *testing.T) {
	for _, hb := range []time.Duration{10 * time.Millisecond, -1} {
		t.Run(fmt.Sprint("heartbeat ", hb), func(t *testing.T) { midRunReportConvergence(t, hb) })
	}
}

func midRunReportConvergence(t *testing.T, heartbeat time.Duration) {
	reached := make(chan struct{})
	release := make(chan struct{})

	// Same gated lineage, but gating the reduce stage: block the first
	// "fmt" invocation, which evaluates only after every map task pushed.
	g := rdd.NewGraph()
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
	job := g.Input("text", inputs).
		FlatMap("split", func(p rdd.Pair) []rdd.Pair {
			fields := strings.Fields(p.Value.(string))
			out := make([]rdd.Pair, len(fields))
			for i, w := range fields {
				out[i] = rdd.KV(w, 1)
			}
			return out
		}).
		ReduceByKey("count", 3, func(a, b rdd.Value) rdd.Value {
			return a.(int) + b.(int)
		}).
		Map("fmt", func(p rdd.Pair) rdd.Pair {
			if once.CompareAndSwap(false, true) {
				close(reached)
				<-release
			}
			return rdd.KV(p.Key, fmt.Sprintf("n=%d", p.Value.(int)))
		})

	cluster, err := New(Config{
		Workers: 3, Mode: ModePush, Aggregators: []int{2},
		HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := cluster.Run(job)
		done <- err
	}()

	<-reached
	// All map pushes happened; wait for heartbeats to carry them in.
	mid := cluster.CurrentStats().RunReport("wordcount", nil)
	if heartbeat > 0 {
		waitFor(t, "heartbeats to merge push bytes into the mid-run report", func() bool {
			mid = cluster.CurrentStats().RunReport("wordcount", nil)
			return mid.BytesTotal > 0
		})
	}
	if sum := reportMatrixSum(mid.TrafficMatrix); sum != mid.BytesTotal {
		t.Fatalf("mid-run matrix sums to %v, want bytes so far = %v", sum, mid.BytesTotal)
	}
	if mid.CompletionSec != 0 {
		t.Fatalf("mid-run CompletionSec = %v, want 0 until the job finishes", mid.CompletionSec)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := cluster.CurrentStats().RunReport("wordcount", nil)
	if final.BytesTotal <= 0 || final.BytesTotal < mid.BytesTotal {
		t.Fatalf("final bytes %v, mid-run bytes %v", final.BytesTotal, mid.BytesTotal)
	}
	if sum := reportMatrixSum(final.TrafficMatrix); sum != final.BytesTotal {
		t.Fatalf("final matrix sums to %v, want %v", sum, final.BytesTotal)
	}
	if final.CompletionSec <= 0 {
		t.Fatal("final report missing completion time")
	}
}

// TestHeartbeatsDisabled runs with heartbeats off (negative interval): the
// workers' accounting is merged by the flush that ends the job and by
// nothing else, so totals, matrix and class split are exact the moment Run
// returns; liveness degrades to closed-only.
func TestHeartbeatsDisabled(t *testing.T) {
	cluster, err := New(Config{
		Workers: 3, Mode: ModePush, Aggregators: []int{2},
		HeartbeatInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	out, stats, err := cluster.Run(buildWordCount(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("output diverges from reference with heartbeats disabled")
	}
	if stats.BytesOverTCP <= 0 {
		t.Fatal("no bytes accounted")
	}
	if sum := matrixSum(stats.TrafficMatrix); sum != stats.BytesOverTCP {
		t.Fatalf("matrix sums to %d, want %d", sum, stats.BytesOverTCP)
	}
	checkConservation(t, stats)
	// Six maps round-robin over three workers put two on the aggregator:
	// the other four push, each of the two senders' links dials its width
	// once, and the reducers, all on the aggregator, fetch nothing.
	if width := int64(cluster.cfg.TasksPerWorker); stats.PushConnections != 4 || stats.FetchConnections != 0 || stats.Dials != 2*width {
		t.Fatalf("%d pushes, %d fetches, %d dials; want 4 pushes (maps at %v, worker 2 aggregates), no fetch and %d dials",
			stats.PushConnections, stats.FetchConnections, stats.Dials, sitesOf(stats, 0), 2*width)
	}
	for i, age := range cluster.HeartbeatAges() {
		if age != 0 {
			t.Fatalf("worker %d reports heartbeat age %v without heartbeats", i, age)
		}
	}
	if s := cluster.StaleWorkers(); len(s) != 0 {
		t.Fatalf("stale workers %v without heartbeats", s)
	}
	if n := stats.Events.Registry().Counter("heartbeats_total", obs.Labels{"worker": "w0"}).Value(); n != 0 {
		t.Fatalf("heartbeats_total = %d with heartbeats disabled", n)
	}
}

// checkConservation holds a finished job's byte accounting against itself:
// the traffic matrix, the class split and the byte counters each add up to
// BytesOverTCP, and the uncompressed-equivalent total is no smaller.
func checkConservation(t *testing.T, stats *Stats) {
	t.Helper()
	if sum := matrixSum(stats.TrafficMatrix); sum != stats.BytesOverTCP {
		t.Errorf("matrix sums to %d, BytesOverTCP is %d", sum, stats.BytesOverTCP)
	}
	var byClass int64
	for _, v := range stats.BytesByClass {
		byClass += v
	}
	if byClass != stats.BytesOverTCP {
		t.Errorf("class split %v sums to %d, BytesOverTCP is %d", stats.BytesByClass, byClass, stats.BytesOverTCP)
	}
	if stats.BytesRaw < stats.BytesOverTCP {
		t.Errorf("BytesRaw %d < BytesOverTCP %d", stats.BytesRaw, stats.BytesOverTCP)
	}
	reg := stats.Events.Registry()
	if wire, raw := reg.Counter("bytes_wire_total", nil).Value(), reg.Counter("bytes_raw_total", nil).Value(); wire != stats.BytesOverTCP || raw != stats.BytesRaw {
		t.Errorf("bytes_wire_total %d / bytes_raw_total %d, stats have %d / %d", wire, raw, stats.BytesOverTCP, stats.BytesRaw)
	}
}

// TestConservationAcrossCanceledJob runs a job on a warm cluster before and
// after one that is canceled mid-map-stage with pushes in flight, with
// heartbeats on and off. Whichever way the workers' buffers reach the
// driver, each job's accounting adds up and is its own — the canceled
// job's bytes do not leak into the next one's — and the connections the
// canceled job held are back in their links: the job after it dials
// nothing.
func TestConservationAcrossCanceledJob(t *testing.T) {
	for _, hb := range []time.Duration{2 * time.Millisecond, -1} {
		t.Run(fmt.Sprint("heartbeat ", hb), func(t *testing.T) {
			// One task per worker: a worker never needs a second connection
			// to a peer.
			cluster, err := New(Config{
				Workers: 2, Mode: ModePush, Aggregators: []int{1},
				TasksPerWorker: 1, Compression: CodecFlate,
				HeartbeatInterval: hb,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
			var before *Stats
			for i := 0; i < 2; i++ { // the first run dials, the second is the reference
				if _, before, err = cluster.Run(buildWordCount(6, 3)); err != nil {
					t.Fatal(err)
				}
				checkConservation(t, before)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			if _, _, err := cluster.RunContext(ctx, buildSlowJob(8, 60*time.Millisecond)); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			canceled := cluster.CurrentStats()
			checkConservation(t, canceled)
			if canceled.PushConnections == 0 {
				t.Fatal("the canceled job pushed nothing before its deadline: the test would prove nothing")
			}

			out, next, err := cluster.Run(buildWordCount(6, 3))
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
		})
	}
}
