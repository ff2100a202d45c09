package livecluster

import (
	"fmt"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// buildChained is a two-shuffle job: word count, then regroup the counts
// by their magnitude bucket — the shape the old single-shuffle livecluster
// rejected.
func buildChained() *rdd.RDD {
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, 6)
	for p := 0; p < 6; p++ {
		var recs []rdd.Pair
		for i := 0; i < 30; i++ {
			recs = append(recs, rdd.KV(
				fmt.Sprintf("line%d-%d", p, i),
				fmt.Sprintf("w%d w%d w%d", (p+i)%5, (p*i)%11, i%3),
			))
		}
		inputs[p] = rdd.InputPartition{Host: topology.HostID(p), ModeledBytes: 1, Records: recs}
	}
	counts := g.Input("text", inputs).
		FlatMap("split", func(p rdd.Pair) []rdd.Pair {
			return []rdd.Pair{rdd.KV(p.Value.(string)[:2], 1)}
		}).
		ReduceByKey("count", 4, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })
	return counts.
		KeyBy("bucket", func(p rdd.Pair) string {
			return fmt.Sprintf("b%d", p.Value.(int)/50)
		}).
		GroupByKey("byBucket", 3).
		MapValues("sizes", func(v rdd.Value) rdd.Value {
			return len(v.([]rdd.Value))
		})
}

// buildPageRankRound is an iterative PageRank round: links grouped from
// edges, joined with ranks, contributions summed — three chained shuffles
// including a two-parent join stage.
func buildPageRankRound() *rdd.RDD {
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, 4)
	for p := 0; p < 4; p++ {
		var recs []rdd.Pair
		for i := 0; i < 25; i++ {
			src := fmt.Sprintf("page%d", (p*25+i)%12)
			dst := fmt.Sprintf("page%d", (p*7+i*3)%12)
			recs = append(recs, rdd.KV(src, dst))
		}
		inputs[p] = rdd.InputPartition{Host: topology.HostID(p), ModeledBytes: 1, Records: recs}
	}
	edges := g.Input("edges", inputs)
	links := edges.GroupByKey("links", 3)
	ranks := links.Map("ranks0", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, 1.0) })
	joined := links.Join("join1", ranks, 3)
	contribs := joined.FlatMap("contribs1", func(p rdd.Pair) []rdd.Pair {
		pair := p.Value.([]rdd.Value)
		dests := pair[0].([]rdd.Value)
		rank := pair[1].(float64)
		out := make([]rdd.Pair, len(dests))
		share := rank / float64(len(dests))
		for i, d := range dests {
			out[i] = rdd.KV(d.(string), share)
		}
		return out
	})
	sums := contribs.ReduceByKey("sum1", 3, func(a, b rdd.Value) rdd.Value {
		return a.(float64) + b.(float64)
	})
	return sums.Map("damp1", func(p rdd.Pair) rdd.Pair {
		return rdd.KV(p.Key, 0.15+0.85*p.Value.(float64))
	})
}

func TestChainedShufflesBothModes(t *testing.T) {
	want := canon(rdd.CollectLocal(buildChained()))
	for _, mode := range []Mode{ModeFetch, ModePush} {
		cluster, err := New(Config{Workers: 4, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := cluster.Run(buildChained())
		cluster.Close()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if canon(out) != want {
			t.Fatalf("%v chained-shuffle output diverges from reference", mode)
		}
		if len(stats.StageSpans) != 3 {
			t.Fatalf("%v: %d stage spans, want 3", mode, len(stats.StageSpans))
		}
		if mode == ModePush && len(stats.AggregatorsByShuffle) != 2 {
			t.Fatalf("push mode chose aggregators for %d shuffles, want 2", len(stats.AggregatorsByShuffle))
		}
	}
}

func TestIterativePageRankRoundBothModes(t *testing.T) {
	want := canon(rdd.CollectLocal(buildPageRankRound()))
	for _, mode := range []Mode{ModeFetch, ModePush} {
		cluster, err := New(Config{Workers: 4, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := cluster.Run(buildPageRankRound())
		cluster.Close()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if canon(out) != want {
			t.Fatalf("%v pagerank round diverges from reference", mode)
		}
		if mode == ModePush {
			// Every shuffle must aggregate: links, the join's two cogroup
			// sides, and the contribution sum.
			if len(stats.AggregatorsByShuffle) != 4 {
				t.Fatalf("aggregators chosen for %d shuffles, want 4", len(stats.AggregatorsByShuffle))
			}
			if stats.PushConnections == 0 {
				t.Fatal("push mode pushed nothing")
			}
		}
	}
}

// TestAutoAggregatorPicksMeasuredHeavySite skews one input partition and
// checks the live cluster's automatic choice lands on the worker that
// round-robin receives it.
func TestAutoAggregatorPicksMeasuredHeavySite(t *testing.T) {
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		parts := make([]rdd.InputPartition, 4)
		for p := 0; p < 4; p++ {
			val := "small"
			if p == 3 {
				val = string(make([]byte, 8192)) // partition 3 dominates
			}
			parts[p] = rdd.InputPartition{Host: 0, ModeledBytes: 1,
				Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", p), val)}}
		}
		return g.Input("in", parts).GroupByKey("g", 2)
	}
	cluster, err := New(Config{Workers: 4, Mode: ModePush})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, stats, err := cluster.Run(build())
	if err != nil {
		t.Fatal(err)
	}
	for _, sites := range stats.AggregatorsByShuffle {
		if len(sites) != 1 || sites[0] != 3 {
			t.Fatalf("aggregated at %v, want worker 3 (holds the 8 KB partition)", sites)
		}
	}
	// All map outputs pushed to worker 3.
	for i, n := range stats.ShardsByWorker {
		want := 0
		if i == 3 {
			want = 4
		}
		if n != want {
			t.Fatalf("worker %d holds %d outputs, want %d", i, n, want)
		}
	}
}

// TestConnectionReuse verifies the per-peer connection pool: requests far
// outnumber dials, and a second job on the same cluster dials nothing.
func TestConnectionReuse(t *testing.T) {
	cluster, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, stats1, err := cluster.Run(buildChained())
	if err != nil {
		t.Fatal(err)
	}
	requests := stats1.PushConnections + stats1.FetchConnections + stats1.SampleRequests
	if stats1.Dials == 0 {
		t.Fatal("first job dialed nothing")
	}
	if links := int64(4 * 3 * cluster.cfg.TasksPerWorker); stats1.Dials > requests || stats1.Dials > links {
		t.Fatalf("%d dials for %d requests over links %d connections wide in all; connections not reused", stats1.Dials, requests, links)
	}
	_, stats2, err := cluster.Run(buildChained())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Dials != 0 {
		t.Fatalf("second job dialed %d fresh connections, want 0 (pool reuse)", stats2.Dials)
	}
	if stats2.FetchConnections == 0 || stats2.BytesOverTCP == 0 {
		t.Fatal("second job moved no data")
	}
}

// TestRangePartitionBarrierOverWire runs a multi-stage sort over the wire:
// the range partitioner is prepared at the map barrier from the samples
// that came back with the map outputs, so the output is globally sorted and
// nothing but shuffle data ever crossed a socket.
func TestRangePartitionBarrierOverWire(t *testing.T) {
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		inputs := make([]rdd.InputPartition, 4)
		for p := 0; p < 4; p++ {
			var recs []rdd.Pair
			for i := 0; i < 40; i++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("%05d", (i*173+p*41)%2500), 1))
			}
			inputs[p] = rdd.InputPartition{Host: topology.HostID(p), ModeledBytes: 1, Records: recs}
		}
		return g.Input("in", inputs).
			ReduceByKey("dedup", 4, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }).
			SortByKey("sorted", 3)
	}
	for _, mode := range []Mode{ModeFetch, ModePush} {
		cluster, err := New(Config{Workers: 3, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := cluster.Run(build())
		cluster.Close()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key < got[i-1].Key {
				t.Fatalf("%v output not globally sorted at %d", mode, i)
			}
		}
		if n := stats.BytesByClass["sample"]; n != 0 || stats.SampleRequests != 0 {
			t.Fatalf("%v: %d sample bytes in %d requests crossed the wire", mode, n, stats.SampleRequests)
		}
		if got := matrixTotal(stats.TrafficMatrix); got != stats.BytesOverTCP || got == 0 {
			t.Fatalf("%v: matrix total %d, BytesOverTCP %d", mode, got, stats.BytesOverTCP)
		}
	}
}

func TestTraceRecordsLiveSpans(t *testing.T) {
	rec := &trace.Recorder{}
	cluster, err := New(Config{Workers: 4, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, _, err := cluster.Run(buildChained()); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	kinds := map[trace.Kind]int{}
	for _, s := range spans {
		kinds[s.Kind]++
	}
	if kinds[trace.KindMap] == 0 || kinds[trace.KindReduce] == 0 {
		t.Fatalf("live run recorded %d spans, want map and reduce activity", len(spans))
	}
}
