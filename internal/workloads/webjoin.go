package workloads

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"wanshuffle/internal/rdd"
)

// WebJoin is an extension workload beyond the paper's five: the classic
// web-analytics query (join page rankings with user visits on URL, then
// aggregate ad revenue by source-IP prefix). Joins cannot combine
// map-side, so the full visits table crosses the shuffle — the regime
// where aggregation helps most after PageRank.
func WebJoin() *Workload {
	return &Workload{
		Name:   "WebJoin",
		TableI: "(extension) rankings 120 MB ⋈ uservisits 1.5 GB, revenue by /16 prefix.",
		// HiBench's web-analytics join inputs: the visits table dominates.
		Inputs: []Input{
			{"wj.rankings", webJoinRankings, 120 * MB},
			{"wj.visits", webJoinVisits, 1.5 * GB},
		},
		Flow:  webJoinFlow,
		Check: expectFloatMatch,
	}
}

// Extensions lists workloads beyond the paper's evaluation set.
func Extensions() []*Workload {
	return []*Workload{WebJoin()}
}

// webJoinPages is the size of the rankings table: one row per URL.
const webJoinPages = 400

func webJoinRankings(int64) []rdd.Pair {
	rankings := make([]rdd.Pair, webJoinPages)
	for p := range rankings {
		rankings[p] = rdd.KV(urlName(p), p+1)
	}
	return rankings
}

// webJoinVisits draws visits with skewed page popularity.
func webJoinVisits(seed int64) []rdd.Pair {
	rng := rand.New(rand.NewSource(seed ^ 0x3e8f1))
	zipf := rand.NewZipf(rng, 1.25, 1, webJoinPages-1)
	visits := make([]rdd.Pair, 2500)
	for v := range visits {
		page := int(zipf.Uint64())
		ip := fmt.Sprintf("%d.%d.%d.%d", rng.Intn(16)+1, rng.Intn(256), rng.Intn(256), rng.Intn(256))
		revenue := float64(rng.Intn(1000)) / 100
		visits[v] = rdd.KV(urlName(page), fmt.Sprintf("%s %.2f", ip, revenue))
	}
	return visits
}

func urlName(p int) string { return fmt.Sprintf("url%05d", p) }

// webJoinFlow: join on URL (visits gain the page rank), then sum ad revenue
// per /16 source prefix, weighting by whether the page is well-ranked.
func webJoinFlow(ins []*rdd.RDD) *rdd.RDD {
	rankings, visits := ins[0], ins[1]
	joined := rankings.Join("wj.join", visits, parallelism)
	contribs := joined.FlatMap("wj.revenue", func(p rdd.Pair) []rdd.Pair {
		pair := p.Value.([]rdd.Value)
		rank := pair[0].(int)
		fields := strings.Fields(pair[1].(string))
		ip, revStr := fields[0], fields[1]
		revenue, err := strconv.ParseFloat(revStr, 64)
		if err != nil {
			return nil
		}
		if rank > 200 {
			// Poorly ranked pages don't count (the query's filter).
			return nil
		}
		parts := strings.SplitN(ip, ".", 3)
		prefix := parts[0] + "." + parts[1]
		return []rdd.Pair{rdd.KV(prefix, revenue)}
	})
	return contribs.SumByKey("wj.byPrefix", parallelism)
}
