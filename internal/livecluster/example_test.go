package livecluster_test

import (
	"fmt"
	"sort"
	"strings"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// Example_wordCount runs a job of two chained shuffles — count words, then
// regroup the counts by order of magnitude — on four workers with genuine
// TCP data planes on loopback, as written and with a transferTo before
// every shuffle (dag.AutoAggregate, Spark's spark.shuffle.aggregation).
// Pushed, every mapper ships its combined output to the shuffle's
// aggregator, chosen by Eq. 2 from the map-output sizes measured on the
// wire, the moment it finishes: all twelve map outputs land on that worker,
// and the bytes that cross sockets are exactly the map stage's S − s₁.
func Example_wordCount() {
	for _, scheme := range []string{"fetch", "push"} {
		job := wordCountJob()
		if scheme == "push" {
			dag.AutoAggregate(job)
		}
		cluster, err := livecluster.New(livecluster.Config{Workers: 4})
		if err != nil {
			panic(err)
		}
		out, stats, err := cluster.Run(job)
		cluster.Close()
		if err != nil {
			panic(err)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		fmt.Printf("[%s] %v, %d bytes over TCP in %d pushes and %d fetches\n",
			scheme, out, stats.BytesOverTCP, stats.PushConnections, stats.FetchConnections)
		fmt.Printf("  map outputs per worker: %v\n", stats.ShardsByWorker)
		for _, d := range stats.Events.Placements() {
			fmt.Printf("  shuffle %d aggregated at %s\n", d.Shuffle, d.ChosenSite)
		}
	}
	// Output:
	// [fetch] [{~10^1 10} {~10^2 7}], 1810 bytes over TCP in 0 pushes and 33 fetches
	//   map outputs per worker: [3 3 3 3]
	// [push] [{~10^1 10} {~10^2 7}], 1144 bytes over TCP in 6 pushes and 0 fetches
	//   map outputs per worker: [0 12 0 0]
	//   shuffle 1 aggregated at w1
	//   shuffle 2 aggregated at w1
}

// wordCountJob counts the words of eight partitions of text and then
// groups the counts by order of magnitude.
func wordCountJob() *rdd.RDD {
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, 8)
	for p := range inputs {
		var recs []rdd.Pair
		for i := 0; i < 60; i++ {
			recs = append(recs, rdd.KV(
				fmt.Sprintf("line-%d-%d", p, i),
				fmt.Sprintf("wide area data analytics shuffle-%d push aggregate", (p*i)%11),
			))
		}
		inputs[p] = rdd.InputPartition{ModeledBytes: 1, Records: recs}
	}
	words := g.Input("text", inputs).MapMulti("split", func(p rdd.Pair, emit func(rdd.Pair)) {
		for _, w := range strings.Fields(p.Value.(string)) {
			emit(rdd.KV(w, 1))
		}
	})
	counts := words.ReduceByKey("count", 4, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
	return counts.
		Map("bucket", func(p rdd.Pair) rdd.Pair {
			return rdd.KV(fmt.Sprintf("~10^%d", len(fmt.Sprint(p.Value.(int)))-1), p.Value)
		}).
		GroupByKey("byMagnitude", 3).
		Map("size", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, len(p.Value.([]rdd.Value))) })
}

// Example_pageRank runs three rounds of PageRank over the live cluster:
// the link-table group, each round's join (two cogroup sides) and its
// contribution sum plan into a stage DAG of ten shuffles, driven stage by
// stage by the same planner as the simulator. With a transferTo before
// every shuffle, each shuffle picks its own aggregator from measured
// map-output sizes.
func Example_pageRank() {
	for _, scheme := range []string{"fetch", "push"} {
		job := pageRankJob(3)
		if scheme == "push" {
			dag.AutoAggregate(job)
		}
		cluster, err := livecluster.New(livecluster.Config{Workers: 4})
		if err != nil {
			panic(err)
		}
		out, stats, err := cluster.Run(job)
		cluster.Close()
		if err != nil {
			panic(err)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		fmt.Printf("[%s] %d ranks, %d stages, %d bytes over TCP\n", scheme, len(out), len(stats.StageSpans), stats.BytesOverTCP)
		for _, p := range out[:4] {
			fmt.Printf("  %s = %.4f\n", p.Key, p.Value.(float64))
		}
		if scheme == "push" {
			var sites []string
			for _, d := range stats.Events.Placements() {
				sites = append(sites, d.ChosenSite)
			}
			fmt.Printf("  aggregators, shuffle by shuffle: %v\n", sites)
		}
	}
	// Output:
	// [fetch] 16 ranks, 11 stages, 8090 bytes over TCP
	//   page00 = 0.8168
	//   page01 = 1.0409
	//   page02 = 1.0136
	//   page03 = 0.8072
	// [push] 16 ranks, 11 stages, 1323 bytes over TCP
	//   page00 = 0.8168
	//   page01 = 1.0409
	//   page02 = 1.0136
	//   page03 = 0.8072
	//   aggregators, shuffle by shuffle: [w1 w1 w1 w1 w1 w1 w1 w1 w1 w1]
}

// pageRankJob is textbook iterative PageRank on a deterministic synthetic
// graph of sixteen pages: group edges into a link table once, then per
// round join the links with the ranks, fan contributions out, and sum them
// per page.
func pageRankJob(rounds int) *rdd.RDD {
	const pages, damping = 16, 0.85
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, 4)
	for p := range inputs {
		var recs []rdd.Pair
		for i := 0; i < 30; i++ {
			src := fmt.Sprintf("page%02d", (p*30+i)%pages)
			dst := fmt.Sprintf("page%02d", (p*7+i*3)%pages)
			if src != dst {
				recs = append(recs, rdd.KV(src, dst))
			}
		}
		inputs[p] = rdd.InputPartition{Host: topology.HostID(p), ModeledBytes: 1, Records: recs}
	}
	links := g.Input("edges", inputs).GroupByKey("links", 3)
	ranks := links.Map("ranks0", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, 1.0) })
	for it := 1; it <= rounds; it++ {
		contribs := links.Join(fmt.Sprintf("join%d", it), ranks, 3).MapMulti(fmt.Sprintf("contribs%d", it), func(p rdd.Pair, emit func(rdd.Pair)) {
			pair := p.Value.([]rdd.Value)
			dests := pair[0].([]rdd.Value)
			share := pair[1].(float64) / float64(len(dests))
			for _, d := range dests {
				emit(rdd.KV(d.(string), share))
			}
		})
		ranks = contribs.ReduceByKey(fmt.Sprintf("sum%d", it), 3, func(a, b rdd.Value) rdd.Value {
			return a.(float64) + b.(float64)
		}).Map(fmt.Sprintf("damp%d", it), func(p rdd.Pair) rdd.Pair {
			return rdd.KV(p.Key, (1-damping)+damping*p.Value.(float64))
		})
	}
	return ranks
}
