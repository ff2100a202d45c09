package workloads

import (
	"fmt"
	"math/rand"

	"wanshuffle/internal/rdd"
)

// pageRankIterations is Table I: "The maximum number of iterations is 3."
const pageRankIterations = 3

// PageRank is the iterative workload: every iteration joins the cached
// link table with the current ranks and aggregates contributions — three
// consecutive rounds of shuffles. Under the baseline each round crosses
// datacenters again, which is why the paper reports its largest traffic
// reduction (91.3%) here.
func PageRank() *Workload {
	return &Workload{
		Name:   "PageRank",
		TableI: "The input has 500,000 pages. The maximum number of iterations is 3.",
		InFig8: true,
		// The paper does not list the byte size; ~600 MB is what a
		// 500k-page link table occupies in HiBench's generator.
		Inputs: []Input{{"pr.edges", pageRankEdges, 600 * MB}},
		Flow:   pageRankFlow,
		Check:  expectFloatMatch,
	}
}

// pageRankEdges generates a link table with skewed in-degrees (popular
// pages attract most links), one record per edge.
func pageRankEdges(seed int64) []rdd.Pair {
	rng := rand.New(rand.NewSource(seed ^ 0x9a6e))
	zipf := rand.NewZipf(rng, 1.4, 1, 1199)
	const pages = 1200
	var recs []rdd.Pair
	for p := 0; p < pages; p++ {
		out := 2 + rng.Intn(8)
		for l := 0; l < out; l++ {
			dst := int(zipf.Uint64())
			if dst == p {
				dst = (dst + 1) % pages
			}
			recs = append(recs, rdd.KV(pageName(p), pageName(dst)))
		}
	}
	return recs
}

func pageName(i int) string { return fmt.Sprintf("page%06d", i) }

func pageRankFlow(ins []*rdd.RDD) *rdd.RDD {
	links := ins[0].GroupByKey("pr.links", parallelism).Cache()
	ranks := links.Map("pr.ranks0", func(p rdd.Pair) rdd.Pair {
		return rdd.KV(p.Key, 1.0)
	})
	for it := 1; it <= pageRankIterations; it++ {
		joined := links.Join(fmt.Sprintf("pr.join%d", it), ranks, parallelism)
		contribs := joined.FlatMap(fmt.Sprintf("pr.contribs%d", it), func(p rdd.Pair) []rdd.Pair {
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
		sums := contribs.ReduceByKey(fmt.Sprintf("pr.sum%d", it), parallelism, func(a, b rdd.Value) rdd.Value {
			return a.(float64) + b.(float64)
		})
		ranks = sums.Map(fmt.Sprintf("pr.damp%d", it), func(p rdd.Pair) rdd.Pair {
			return rdd.KV(p.Key, 0.15+0.85*p.Value.(float64))
		})
	}
	return ranks
}
