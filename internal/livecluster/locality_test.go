package livecluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// streamedBytes is the record-codec size of a map output as a chunk stream
// carries it: what its push span reports.
func streamedBytes(records []rdd.Pair, chunkRecords int) float64 {
	var n float64
	for _, chunk := range splitRecords(records, chunkRecords) {
		n += rdd.EncodedSize(chunk)
	}
	return n
}

// TestNoWorkerDialsItself runs the sim≡live property lineages in both modes,
// resident and under a forced spill, and holds every run to the locality
// rule: output equal to the reference, an empty traffic-matrix diagonal, a
// fetch request for exactly the (reader, map output) pairs on different
// workers — none at all when every reducer sits on its aggregator — and, in
// push mode, push spans that add up per shuffle to the codec bytes of the map
// outputs produced off the aggregator: Eq. 2's S − s₁.
func TestNoWorkerDialsItself(t *testing.T) {
	hosts := topology.SixRegionEC2().Workers()
	for _, mode := range []Mode{ModePush, ModeFetch} {
		for _, budget := range []int64{0, 1 << 10} {
			t.Run(fmt.Sprintf("%v/budget %d", mode, budget), func(t *testing.T) {
				allLocal := 0
				for _, seed := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 22} {
					if noWorkerDialsItself(t, seed, hosts, mode, budget) {
						allLocal++
					}
				}
				if mode == ModePush && allLocal == 0 {
					t.Fatal("no push-mode run kept every read on its aggregator: the no-fetch case went untested")
				}
			})
		}
	}
}

// noWorkerDialsItself checks one run and reports whether it made no fetch
// request at all.
func noWorkerDialsItself(t *testing.T, seed int64, hosts []topology.HostID, mode Mode, budget int64) bool {
	t.Helper()
	want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), hosts)))
	tr := &trace.Recorder{}
	cluster, err := New(Config{Workers: 4, Mode: mode, MemoryBudget: budget, SpillDir: t.TempDir(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	out, stats, err := cluster.Run(rdd.RandomLineage(seed, rdd.NewGraph(), hosts))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if canon(out) != want {
		t.Fatalf("seed %d: output diverges from the reference", seed)
	}
	if stats.Retries != 0 {
		t.Fatalf("seed %d: %d retries in a run nothing disturbed", seed, stats.Retries)
	}
	for i, row := range stats.TrafficMatrix {
		if row[i] != 0 {
			t.Fatalf("seed %d: worker %d moved %d bytes to itself over a socket", seed, i, row[i])
		}
	}
	checkConservation(t, stats)

	// The trace says where everything ran: a map span per map output, with
	// its shuffle, its worker and rdd.EncodedSize of what it prepared.
	mapSpans := map[int]map[int]trace.Span{} // shuffle → map partition → span
	pushed := map[int]float64{}              // shuffle → codec bytes of its push spans
	var fetches []trace.Span
	serves := 0
	for _, s := range tr.Spans() {
		switch s.Kind {
		case trace.KindMap:
			if mapSpans[s.Shuffle] == nil {
				mapSpans[s.Shuffle] = map[int]trace.Span{}
			}
			mapSpans[s.Shuffle][s.Part] = s
		case trace.KindPush:
			pushed[s.Shuffle] += s.Bytes
		case trace.KindFetch:
			fetches = append(fetches, s)
		case trace.KindServe:
			serves++
		}
	}
	holder := func(shuffle, mapPart int) int {
		if agg := stats.AggregatorsByShuffle[shuffle]; len(agg) > 0 {
			return agg[0]
		}
		return int(mapSpans[shuffle][mapPart].Host)
	}
	for shuffle, maps := range mapSpans {
		agg := stats.AggregatorsByShuffle[shuffle]
		if (mode == ModePush) != (len(agg) == 1) {
			t.Fatalf("seed %d: shuffle %d aggregated at %v in %v mode", seed, shuffle, agg, mode)
		}
		// S − s₁, from the prepared outputs themselves as their holders
		// store them (bucketing reorders records, it does not resize them).
		var crossed float64
		for m, span := range maps {
			stored, err := cluster.workers[holder(shuffle, m)].store.Get(blockstore.Key{Shuffle: shuffle, MapPart: m})
			if err != nil {
				t.Fatalf("seed %d: shuffle %d map %d is not where the placement says: %v", seed, shuffle, m, err)
			}
			if size := rdd.EncodedSize(stored); size != span.Bytes {
				t.Fatalf("seed %d: shuffle %d map %d stores %v codec bytes, its map task reported %v", seed, shuffle, m, size, span.Bytes)
			}
			if mode == ModePush && int(span.Host) != agg[0] {
				crossed += streamedBytes(stored, cluster.cfg.ChunkRecords)
			}
		}
		if pushed[shuffle] != crossed {
			t.Fatalf("seed %d: shuffle %d: push spans carry %v codec bytes, the map outputs produced off the aggregator %v",
				seed, shuffle, pushed[shuffle], crossed)
		}
	}
	var remote int64
	for _, f := range fetches {
		for m := range mapSpans[f.Shuffle] {
			if holder(f.Shuffle, m) != int(f.Host) {
				remote++
			}
		}
	}
	if stats.FetchConnections != remote || int64(serves) != remote {
		t.Fatalf("seed %d: %d fetch requests and %d serve spans, want %d: one per map output held by another worker than its reader",
			seed, stats.FetchConnections, serves, remote)
	}
	return len(fetches) > 0 && remote == 0
}

// TestPushModeReadsAnotherAggregatorOverTCP pins two aggregators: every
// reducer sits on one of them, reads that one's half of the map outputs from
// its own store and the other half through fetch, serve spans and all.
func TestPushModeReadsAnotherAggregatorOverTCP(t *testing.T) {
	tr := &trace.Recorder{}
	cluster, err := New(Config{Workers: 4, Mode: ModePush, Aggregators: []int{1, 2}, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	want := canon(rdd.CollectLocal(buildWordCount(6, 4)))
	out, stats, err := cluster.Run(buildWordCount(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("output diverges from the reference")
	}
	if got := fmt.Sprint(stats.ShardsByWorker); got != "[0 3 3 0]" {
		t.Fatalf("map outputs held %s, want three on each aggregator", got)
	}
	reducers := sitesOf(stats, 1)
	for part, site := range reducers {
		if site != 1 && site != 2 {
			t.Fatalf("reducer %d ran on worker %d, off the aggregators", part, site)
		}
	}
	// Each of the four reducers reads the other aggregator's three outputs.
	if want := int64(len(reducers) * 3); len(reducers) != 4 || stats.FetchConnections != want {
		t.Fatalf("%d fetch requests from reducers at %v, want %d", stats.FetchConnections, reducers, want)
	}
	serves := 0
	for _, s := range tr.Spans() {
		if s.Kind != trace.KindServe {
			continue
		}
		serves++
		if between := s.SrcSite + "→" + s.DstSite; between != "w1→w2" && between != "w2→w1" {
			t.Fatalf("serve span %s: remote reads run between the two aggregators", between)
		}
	}
	if int64(serves) != stats.FetchConnections {
		t.Fatalf("%d serve spans for %d fetch requests", serves, stats.FetchConnections)
	}
	if stats.TrafficMatrix[1][2] == 0 || stats.TrafficMatrix[2][1] == 0 || stats.TrafficMatrix[1][1] != 0 || stats.TrafficMatrix[2][2] != 0 {
		t.Fatalf("traffic matrix %v: the aggregators read each other and not themselves", stats.TrafficMatrix)
	}
	checkConservation(t, stats)
}

// capturingRun is a liveRun that keeps the tasks the driver handed it, for a
// test to gather through again.
type capturingRun struct {
	*liveRun
	mu    sync.Mutex
	tasks []plan.Task
}

func (r *capturingRun) RunTask(t plan.Task) (plan.TaskResult, error) {
	r.mu.Lock()
	r.tasks = append(r.tasks, t)
	r.mu.Unlock()
	return r.liveRun.RunTask(t)
}

// TestLocalReadDoesNotAliasTheStore reads one reduce partition through
// liveRun.reader twice, as a retried reduce attempt does, and scrambles the
// first result in place in between: the second read is what the first was,
// so nothing a reducer does to its input reaches the block store.
func TestLocalReadDoesNotAliasTheStore(t *testing.T) {
	for _, budget := range []int64{0, 1 << 10} {
		t.Run(fmt.Sprintf("budget %d", budget), func(t *testing.T) {
			c, err := New(Config{Workers: 2, Mode: ModePush, Aggregators: []int{1}, MemoryBudget: budget, SpillDir: t.TempDir(), HeartbeatInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			g := rdd.NewGraph()
			parts := make([]rdd.InputPartition, 4)
			for p := range parts {
				parts[p] = rdd.InputPartition{ModeledBytes: 1, Records: pairs(40 + 10*p)}
			}
			job, err := plan.BuildJob(g.Input("in", parts).GroupByKey("group", 2))
			if err != nil {
				t.Fatal(err)
			}
			// What RunContext does, with the backend wrapped to keep its tasks.
			for _, spec := range job.Plan.Shuffles() {
				c.specs.Store(spec.ID, spec)
			}
			run := &capturingRun{liveRun: newLiveRun(c, c.newStats(), job.Plan)}
			c.curRun.Store(run.liveRun)
			defer c.curRun.Store(nil)
			drv := plan.NewDriver(job, run, plan.DriverConfig{Aggregate: true, Aggregators: []int{1}, SiteSlots: 2})
			if _, err := drv.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if budget > 0 && c.StorageStats().SpillEvents == 0 {
				t.Fatal("nothing spilled under the budget")
			}
			var reducer *plan.Task
			for i := range run.tasks {
				if len(run.tasks[i].Stage.Boundaries) > 0 {
					reducer = &run.tasks[i]
					break
				}
			}
			if reducer == nil || reducer.Site != 1 {
				t.Fatalf("no reduce task on the aggregator among %d tasks", len(run.tasks))
			}
			spec := reducer.Stage.Boundaries[0].Deps[0].Shuffle
			read := run.reader(*reducer, 0, new(float64))
			first, err := read(spec, reducer.Part)
			if err != nil || len(first) == 0 {
				t.Fatalf("first read: %d records, %v", len(first), err)
			}
			want := canon(first)
			for i := range first {
				first[i] = rdd.KV("scrambled", i)
			}
			second, err := read(spec, reducer.Part)
			if err != nil {
				t.Fatal(err)
			}
			if canon(second) != want {
				t.Fatal("the second read of a reduce partition shows what was done to the first: the reader hands out the store's slices")
			}
			if stats := flushed(c); stats.FetchConnections != 0 {
				t.Fatalf("%d fetch requests: the reads were not local", stats.FetchConnections)
			}
		})
	}
}

// TestKillAggregatorUnderLocalReads kills the aggregator while its reducers
// are reading its store: one reducer is parked inside its closure, holding a
// task slot, while the other slot works through the remaining reducers' local
// gathers. The job ends with the reference output or with an error that says
// what was lost — the worker, the stored output, the connection to it —
// never with a panic or a short read.
func TestKillAggregatorUnderLocalReads(t *testing.T) {
	const agg = 2
	for round := 0; round < 5; round++ {
		reached := make(chan struct{})
		release := make(chan struct{})
		var once atomic.Bool
		build := func(gated bool) *rdd.RDD {
			g := rdd.NewGraph()
			parts := make([]rdd.InputPartition, 16)
			for p := range parts {
				recs := pairs(120)
				for i := range recs {
					recs[i].Key = fmt.Sprintf("%s-%d", recs[i].Key, p%3)
				}
				parts[p] = rdd.InputPartition{ModeledBytes: 1, Records: recs}
			}
			return g.Input("in", parts).GroupByKey("group", 12).Map("count", func(p rdd.Pair) rdd.Pair {
				if gated && once.CompareAndSwap(false, true) {
					close(reached)
					<-release
				}
				return rdd.KV(p.Key, len(p.Value.([]rdd.Value)))
			})
		}
		want := canon(rdd.CollectLocal(build(false)))
		cluster, err := New(Config{Workers: 3, Mode: ModePush, Aggregators: []int{agg}})
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			out []rdd.Pair
			err error
		}
		done := make(chan result, 1)
		go func() {
			out, _, err := cluster.Run(build(true))
			done <- result{out, err}
		}()
		<-reached
		cluster.KillWorker(agg)
		close(release)
		res := <-done
		cluster.Close()
		if res.err == nil {
			if canon(res.out) != want {
				t.Fatalf("round %d: the job survived the kill with a short or wrong output", round)
			}
			continue
		}
		var netErr net.Error
		if !errors.Is(res.err, errWorkerDown) && !errors.Is(res.err, blockstore.ErrNotFound) &&
			!errors.As(res.err, &netErr) && !errors.Is(res.err, io.EOF) && !errors.Is(res.err, io.ErrUnexpectedEOF) {
			t.Fatalf("round %d: job failed with %v (%T), want an error naming the dead worker, its lost output or the connection to it", round, res.err, res.err)
		}
		if !strings.Contains(res.err.Error(), "plan: task ") {
			t.Fatalf("round %d: %v does not say which task failed", round, res.err)
		}
	}
}
