package livecluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

func buildWordCount(parts, reduces int) *rdd.RDD {
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
	in := g.Input("text", inputs)
	words := in.FlatMap("split", func(p rdd.Pair) []rdd.Pair {
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

func canon(records []rdd.Pair) string {
	cp := make([]rdd.Pair, len(records))
	copy(cp, records)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Key != cp[j].Key {
			return cp[i].Key < cp[j].Key
		}
		return fmt.Sprint(cp[i].Value) < fmt.Sprint(cp[j].Value)
	})
	var b strings.Builder
	for _, p := range cp {
		fmt.Fprintf(&b, "%s=%v;", p.Key, p.Value)
	}
	return b.String()
}

func runMode(t *testing.T, mode Mode, job *rdd.RDD) ([]rdd.Pair, *Stats) {
	t.Helper()
	cluster, err := New(Config{Workers: 4, Mode: mode, Aggregators: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	out, stats, err := cluster.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func TestWordCountOverTCPMatchesReference(t *testing.T) {
	want := canon(rdd.CollectLocal(buildWordCount(6, 3)))
	for _, mode := range []Mode{ModeFetch, ModePush} {
		got, stats := runMode(t, mode, buildWordCount(6, 3))
		if canon(got) != want {
			t.Fatalf("%v output diverges from reference", mode)
		}
		if stats.BytesOverTCP <= 0 {
			t.Fatalf("%v moved no bytes over TCP", mode)
		}
	}
}

// sitesOf returns where each task of a stage ran, by partition: the worker
// its finished attempt was placed on, as the driver's task events recorded it.
func sitesOf(stats *Stats, stage int) map[int]int {
	sites := map[int]int{}
	for _, ev := range stats.Events.TaskEvents() {
		if ev.Stage == stage && ev.Phase == obs.PhaseFinished {
			sites[ev.Part] = ev.Site
		}
	}
	return sites
}

func TestPushModeAggregatesOutputs(t *testing.T) {
	_, stats := runMode(t, ModePush, buildWordCount(6, 3))
	// All 6 map outputs must land on worker 2, none elsewhere.
	for i, n := range stats.ShardsByWorker {
		want := 0
		if i == 2 {
			want = 6
		}
		if n != want {
			t.Fatalf("worker %d holds %d outputs, want %d: %v", i, n, want, stats.ShardsByWorker)
		}
	}
	// A push is an exchange that crossed a socket: one per map task that ran
	// anywhere but on the aggregator, whose own maps install directly.
	maps := sitesOf(stats, 0)
	var offAggregator int64
	for _, site := range maps {
		if site != 2 {
			offAggregator++
		}
	}
	if len(maps) != 6 || offAggregator == 6 || stats.PushConnections != offAggregator {
		t.Fatalf("push connections = %d, want %d: the maps ran at %v and worker 2 aggregates", stats.PushConnections, offAggregator, maps)
	}
	// Every reducer sits on the aggregator and reads its store directly.
	if stats.FetchConnections != 0 {
		t.Fatalf("%d fetch requests with reducers at %v: an aggregator's reducers read locally", stats.FetchConnections, sitesOf(stats, 1))
	}
}

func TestFetchModeScattersOutputs(t *testing.T) {
	_, stats := runMode(t, ModeFetch, buildWordCount(6, 3))
	if stats.PushConnections != 0 {
		t.Fatalf("fetch mode pushed: %d", stats.PushConnections)
	}
	// 6 maps round-robin over 4 workers.
	holders := 0
	for _, n := range stats.ShardsByWorker {
		if n > 0 {
			holders++
		}
	}
	if holders < 3 {
		t.Fatalf("outputs on %d workers, want scattered: %v", holders, stats.ShardsByWorker)
	}
	// Every reducer reads every map output, over a socket unless its own
	// worker holds it: the fetches are the (reducer, map) pairs on different
	// workers.
	maps, reducers := sitesOf(stats, 0), sitesOf(stats, 1)
	var remote, local int64
	for _, r := range reducers {
		for _, m := range maps {
			if m != r {
				remote++
			} else {
				local++
			}
		}
	}
	if remote+local != 3*6 || local == 0 || stats.FetchConnections != remote {
		t.Fatalf("fetch connections = %d, want %d (%d of the 18 reads are local): maps at %v, reducers at %v",
			stats.FetchConnections, remote, local, maps, reducers)
	}
}

func TestSortByKeyOverTCP(t *testing.T) {
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		inputs := make([]rdd.InputPartition, 4)
		for p := 0; p < 4; p++ {
			var recs []rdd.Pair
			for i := 0; i < 50; i++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("%05d", (i*131+p*37)%3000), "v"))
			}
			inputs[p] = rdd.InputPartition{Host: 0, ModeledBytes: 1, Records: recs}
		}
		return g.Input("in", inputs).SortByKey("sorted", 3)
	}
	for _, mode := range []Mode{ModeFetch, ModePush} {
		got, _ := runMode(t, mode, build())
		if len(got) != 200 {
			t.Fatalf("%v lost records: %d", mode, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key < got[i-1].Key {
				t.Fatalf("%v output not globally sorted at %d", mode, i)
			}
		}
	}
}

func TestMultiShuffleJobsSupported(t *testing.T) {
	// The old single-shuffle restriction is gone: chained shuffles plan
	// and run like any simulator job.
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		in := g.Input("in", []rdd.InputPartition{
			{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1), rdd.KV("b", 2)}},
			{Host: 1, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 3), rdd.KV("c", 4)}},
		})
		return in.ReduceByKey("r1", 2, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }).
			GroupByKey("r2", 2)
	}
	want := canon(rdd.CollectLocal(build()))
	cluster, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	out, _, err := cluster.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("two-shuffle job diverges from reference")
	}
}

func TestRejectsTransferLineage(t *testing.T) {
	g := rdd.NewGraph()
	in := g.Input("in", []rdd.InputPartition{{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1)}}})
	job := in.TransferTo(1).ReduceByKey("r", 2, func(a, b rdd.Value) rdd.Value { return a })
	cluster, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, _, err := cluster.Run(job); err == nil {
		t.Fatal("transferTo lineage accepted; modes are configured, not inlined")
	}
}

func TestBadAggregatorRejected(t *testing.T) {
	if _, err := New(Config{Workers: 2, Aggregators: []int{5}}); err == nil {
		t.Fatal("out-of-range aggregator accepted")
	}
	// A push is one stream; the field only survives for perf/, at 1.
	if _, err := New(Config{Workers: 2, PushFanout: 2}); err == nil {
		t.Fatal("PushFanout 2 accepted: nothing would honour it")
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	cluster, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Close()
	cluster.Close()
	if len(cluster.workers) != 2 {
		t.Fatal("workers lost")
	}
}

func TestModeString(t *testing.T) {
	if ModeFetch.String() != "fetch" || ModePush.String() != "push" || Mode(9).String() == "" {
		t.Fatal("mode strings wrong")
	}
}
