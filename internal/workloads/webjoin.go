package workloads

import (
	"math/rand"
	"strconv"
	"strings"

	"wanshuffle/internal/rdd"
)

// webJoin is an extension workload beyond the paper's five: the classic
// web-analytics query (join page rankings with user visits on URL, then
// aggregate ad revenue by source-IP prefix). Joins cannot combine
// map-side, so the full visits table crosses the shuffle — the regime
// where aggregation helps most after PageRank.
func webJoin() *Workload {
	return &Workload{
		Name:   "WebJoin",
		TableI: "(extension) rankings 120 MB ⋈ uservisits 1.5 GB, revenue by /16 prefix.",
		// HiBench's web-analytics join inputs: the visits table dominates.
		inputs: []input{
			{"wj.rankings", webJoinRankings, 120 * mb},
			{"wj.visits", webJoinVisits, 1.5 * gb},
		},
		flow:  webJoinFlow,
		Check: expectFloatMatch,
	}
}

// Extensions lists workloads beyond the paper's evaluation set.
func Extensions() []*Workload {
	return []*Workload{webJoin()}
}

// webJoinPages is the size of the rankings table: one row per URL.
const webJoinPages = 400

func webJoinRankings(int64) []rdd.Pair {
	urls := names("url", webJoinPages, 5)
	rankings := make([]rdd.Pair, webJoinPages)
	for p := range rankings {
		rankings[p] = rdd.KV(urls[p], p+1)
	}
	return rankings
}

// webJoinVisits draws visits with skewed page popularity. A visit's value
// is its source IP and its ad revenue to two decimals: "ip revenue".
func webJoinVisits(seed int64) []rdd.Pair {
	rng := rand.New(rand.NewSource(seed ^ 0x3e8f1))
	zipf := rand.NewZipf(rng, 1.25, 1, webJoinPages-1)
	urls := names("url", webJoinPages, 5)
	visits := make([]rdd.Pair, 2500)
	var row []byte
	for v := range visits {
		page := int(zipf.Uint64())
		row = appendNumbered(row[:0], "", rng.Intn(16)+1, 0)
		for octet := 0; octet < 3; octet++ {
			row = appendNumbered(row, ".", rng.Intn(256), 0)
		}
		row = append(row, ' ')
		row = strconv.AppendFloat(row, float64(rng.Intn(1000))/100, 'f', 2, 64)
		visits[v] = rdd.KV(urls[page], string(row))
	}
	return visits
}

// webJoinFlow: join on URL (visits gain the page rank), then sum ad revenue
// per /16 source prefix, weighting by whether the page is well-ranked.
func webJoinFlow(ins []*rdd.RDD) *rdd.RDD {
	rankings, visits := ins[0], ins[1]
	joined := rankings.Join("wj.join", visits, parallelism)
	contribs := joined.MapMulti("wj.revenue", func(p rdd.Pair, emit func(rdd.Pair)) {
		pair := p.Value.([]rdd.Value)
		rank := pair[0].(int)
		var ip, revStr string // a visit's first two fields
		n := 0
		eachField(pair[1].(string), func(f string) {
			switch n {
			case 0:
				ip = f
			case 1:
				revStr = f
			}
			n++
		})
		revenue, err := strconv.ParseFloat(revStr, 64)
		if err != nil {
			return
		}
		if rank > 200 {
			// Poorly ranked pages don't count (the query's filter).
			return
		}
		// The /16 prefix: the IP up to its second dot.
		first := strings.IndexByte(ip, '.') + 1
		second := strings.IndexByte(ip[first:], '.')
		emit(rdd.KV(ip[:first+second], revenue))
	})
	return contribs.ReduceByKey("wj.byPrefix", parallelism, func(a, b rdd.Value) rdd.Value {
		return a.(float64) + b.(float64)
	})
}
