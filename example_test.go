package wanshuffle_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"wanshuffle"
)

// Example runs the paper's headline comparison on a toy corpus: the same
// WordCount under the fetch-based baseline and under Push/Aggregate. The
// outputs are identical; AggShuffle finishes sooner and avoids cross-DC
// shuffle fetches entirely.
func Example() {
	var lines []wanshuffle.Pair
	for i := 0; i < 600; i++ {
		lines = append(lines, wanshuffle.KV(
			fmt.Sprintf("l%04d", i),
			fmt.Sprintf("push aggregate shuffle wan-%d", i%9),
		))
	}

	run := func(scheme wanshuffle.Scheme) *wanshuffle.Report {
		ctx := wanshuffle.NewContext(wanshuffle.Config{Seed: 1, Scheme: scheme})
		counts := ctx.DistributeRecords("text", lines, 24, 1e9).
			MapMulti("split", func(p wanshuffle.Pair, emit func(wanshuffle.Pair)) {
				for _, w := range strings.Fields(p.Value.(string)) {
					emit(wanshuffle.KV(w, 1))
				}
			}).
			ReduceByKey("count", 8, func(a, b wanshuffle.Value) wanshuffle.Value {
				return a.(int) + b.(int)
			})
		report, err := ctx.Collect(counts)
		if err != nil {
			panic(err)
		}
		return report
	}

	spark := run(wanshuffle.SchemeSpark)
	agg := run(wanshuffle.SchemeAggShuffle)

	fmt.Println("distinct words:", len(spark.Records), len(agg.Records))
	fmt.Println("aggregation faster:", agg.JCT < spark.JCT)
	fmt.Println("cross-DC fetches under AggShuffle:", agg.CrossDCByTag["shuffle"])
	// Output:
	// distinct words: 12 12
	// aggregation faster: true
	// cross-DC fetches under AggShuffle: 0
}

// Example_cachedAnalytics is the paper's Sec. IV-E discussion of cached
// datasets: "with the help of transferTo(), the developers are allowed to
// cache after all data is aggregated in a single datacenter". A log dataset
// is cleaned once, cached, and joined against three small incident tables
// that live in the master's datacenter. Caching where the data was born
// makes every join re-cross the WAN; a transferTo before the cache keeps
// the bulk in one datacenter.
func Example_cachedAnalytics() {
	pipeline := func(aggregateFirst bool) (jct, crossDC float64) {
		ctx := wanshuffle.NewContext(wanshuffle.Config{Seed: 21, Scheme: wanshuffle.SchemeManual})
		var lines []wanshuffle.Pair
		for i := 0; i < 3000; i++ {
			level := []string{"info", "warn", "error", "debug"}[i%4]
			lines = append(lines, wanshuffle.KV(
				fmt.Sprintf("req-%05d", i),
				fmt.Sprintf("%s service-%d latency=%d", level, i%12, (i*37)%500),
			))
		}
		cleaned := ctx.DistributeRecords("logs", lines, 24, 2.4e9).Filter("drop-debug", func(p wanshuffle.Pair) bool {
			return !strings.HasPrefix(p.Value.(string), "debug")
		})
		if aggregateFirst {
			cleaned = cleaned.TransferToAuto()
		}
		cleaned = cleaned.Cache()
		// The first job materialises the cache.
		rep, err := ctx.Count(cleaned)
		if err != nil {
			panic(err)
		}
		jct, crossDC = rep.JCT, rep.CrossDCBytes
		// A join shuffles both sides in full, so where the cached bulk lives
		// decides whether every reuse re-crosses the WAN.
		va, _ := ctx.Topology().DCByName("us-east-1")
		vaHosts := ctx.Topology().HostsIn(va)
		for day := 0; day < 3; day++ {
			var incidents []wanshuffle.Pair
			for i := 0; i < 40; i++ {
				incidents = append(incidents, wanshuffle.KV(
					fmt.Sprintf("req-%05d", (i*83+day*7)%3000),
					fmt.Sprintf("incident-%d", day),
				))
			}
			table := ctx.Input(fmt.Sprintf("incidents-%d", day), []wanshuffle.InputPartition{{
				Host: vaHosts[day%len(vaHosts)], ModeledBytes: 4e6, Records: incidents,
			}})
			rep, err := ctx.Save(cleaned.Join(fmt.Sprintf("match-%d", day), table, 8))
			if err != nil {
				panic(err)
			}
			jct += rep.JCT
			crossDC += rep.CrossDCBytes
		}
		return jct, crossDC
	}

	fmt.Printf("%-28s %14s %18s\n", "Variant", "total JCT (s)", "cross-DC (MB)")
	for _, aggregateFirst := range []bool{false, true} {
		name := "cache scattered (naive)"
		if aggregateFirst {
			name = "transferTo then cache"
		}
		jct, crossDC := pipeline(aggregateFirst)
		fmt.Printf("%-28s %14.1f %18.0f\n", name, jct, crossDC/1e6)
	}
	// Output:
	// Variant                       total JCT (s)      cross-DC (MB)
	// cache scattered (naive)               141.1               3736
	// transferTo then cache                 117.5               1200
}

// Example_geoKMeans is the boundary case of the paper's analysis: KMeans
// run as one job per iteration, each assigning points to their nearest
// centroid and summing them per cluster through a combining shuffle.
// Map-side combining collapses every shuffle to k small vectors per
// partition, so Push/Aggregate has almost nothing to save: both schemes
// move a few dozen MB, take about the same time, and converge to the same
// centroids. Example_geoPageRank, whose joins cannot combine, is the other
// end.
func Example_geoKMeans() {
	const points, dims, k, iterations = 2400, 4, 6, 4
	rng := rand.New(rand.NewSource(99))
	data := make([]wanshuffle.Pair, points)
	for i := range data {
		p := make([]float64, dims)
		for d := range p {
			p[d] = float64(i%k*10) + rng.NormFloat64()
		}
		data[i] = wanshuffle.KV(fmt.Sprintf("p%05d", i), p)
	}
	sqDist := func(a, b []float64) float64 {
		var s float64
		for i := range b {
			s += (a[i] - b[i]) * (a[i] - b[i])
		}
		return s
	}
	nearest := func(point []float64, centroids [][]float64) (best int, dist float64) {
		dist = math.Inf(1)
		for ci, c := range centroids {
			if d := sqDist(point, c); d < dist {
				best, dist = ci, d
			}
		}
		return best, dist
	}

	fmt.Printf("%-12s %12s %16s %12s\n", "Scheme", "total JCT", "cross-DC (MB)", "inertia")
	for _, scheme := range []wanshuffle.Scheme{wanshuffle.SchemeSpark, wanshuffle.SchemeAggShuffle} {
		ctx := wanshuffle.NewContext(wanshuffle.Config{Seed: 13, Scheme: scheme})
		cached := ctx.DistributeRecords("points", data, 24, 1.6e9).Cache()
		centroids := make([][]float64, k)
		for ci := range centroids {
			centroids[ci] = make([]float64, dims)
			for d := range centroids[ci] {
				centroids[ci][d] = float64(ci*10) + 0.5
			}
		}
		var jct, crossDC, inertia float64
		for it := 0; it < iterations; it++ {
			cs := centroids
			assigned := cached.Map(fmt.Sprintf("assign%d", it), func(p wanshuffle.Pair) wanshuffle.Pair {
				point := p.Value.([]float64)
				best, _ := nearest(point, cs)
				// The point's coordinates and a trailing count of 1.
				return wanshuffle.KV(fmt.Sprintf("c%02d", best), append(append([]float64{}, point...), 1))
			})
			sums := assigned.ReduceByKey(fmt.Sprintf("sum%d", it), 8, func(a, b wanshuffle.Value) wanshuffle.Value {
				av, bv := a.([]float64), b.([]float64)
				out := make([]float64, len(av))
				for i := range av {
					out[i] = av[i] + bv[i]
				}
				return out
			})
			rep, err := ctx.Collect(sums)
			if err != nil {
				panic(err)
			}
			jct += rep.JCT
			crossDC += rep.CrossDCBytes
			for _, rec := range rep.Records {
				var ci int
				if _, err := fmt.Sscanf(rec.Key, "c%02d", &ci); err != nil {
					panic(err)
				}
				sum := rec.Value.([]float64)
				for d := 0; d < dims; d++ {
					centroids[ci][d] = sum[d] / sum[dims]
				}
			}
		}
		for _, p := range data {
			_, d := nearest(p.Value.([]float64), centroids)
			inertia += d
		}
		fmt.Printf("%-12s %11.1fs %16.0f %12.1f\n", scheme, jct, crossDC/1e6, inertia)
	}
	// Output:
	// Scheme          total JCT    cross-DC (MB)      inertia
	// Spark               12.3s               46       9883.6
	// AggShuffle          13.6s               45       9883.6
}

// Example_geoPageRank is iterative PageRank over a web graph whose edges
// originate in six regions, the workload of the paper's largest traffic
// cut (Fig. 8). Every iteration joins the cached link table with the
// current ranks: under the fetch-based baseline each iteration's shuffles
// cross the WAN again, while under AggShuffle the first aggregation keeps
// all later computation, and the cached links, in one datacenter.
func Example_geoPageRank() {
	const pages, iterations, damping = 1000, 3, 0.85
	// A scale-free-ish graph: in-links concentrate on low-numbered pages
	// through a quadratic skew, so ranks differentiate.
	var edges []wanshuffle.Pair
	rng := rand.New(rand.NewSource(99))
	for i := 1; i < pages; i++ {
		for l, out := 0, 2+rng.Intn(4); l < out; l++ {
			d := rng.Intn(pages)
			dst := d * d / pages
			if dst == i {
				dst = (dst + 1) % pages
			}
			edges = append(edges, wanshuffle.KV(fmt.Sprintf("page%04d", i), fmt.Sprintf("page%04d", dst)))
		}
	}

	fmt.Printf("%-12s %10s %16s\n", "Scheme", "JCT (s)", "cross-DC (MB)")
	var top []wanshuffle.Pair
	for _, scheme := range []wanshuffle.Scheme{wanshuffle.SchemeSpark, wanshuffle.SchemeAggShuffle} {
		ctx := wanshuffle.NewContext(wanshuffle.Config{Seed: 7, Scheme: scheme})
		links := ctx.DistributeRecords("edges", edges, 24, 600e6).GroupByKey("links", 8).Cache()
		ranks := links.Map("init", func(p wanshuffle.Pair) wanshuffle.Pair { return wanshuffle.KV(p.Key, 1.0) })
		for it := 1; it <= iterations; it++ {
			ranks = links.Join(fmt.Sprintf("join%d", it), ranks, 8).
				MapMulti(fmt.Sprintf("contrib%d", it), func(p wanshuffle.Pair, emit func(wanshuffle.Pair)) {
					pair := p.Value.([]wanshuffle.Value)
					dests := pair[0].([]wanshuffle.Value)
					share := pair[1].(float64) / float64(len(dests))
					for _, d := range dests {
						emit(wanshuffle.KV(d.(string), share))
					}
				}).
				ReduceByKey(fmt.Sprintf("sum%d", it), 8, func(a, b wanshuffle.Value) wanshuffle.Value {
					return a.(float64) + b.(float64)
				}).
				Map(fmt.Sprintf("damp%d", it), func(p wanshuffle.Pair) wanshuffle.Pair {
					return wanshuffle.KV(p.Key, (1-damping)+damping*p.Value.(float64))
				})
		}
		rep, err := ctx.Collect(ranks)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-12s %10.1f %16.0f\n", scheme, rep.JCT, rep.CrossDCBytes/1e6)
		top = append(top[:0], rep.Records...)
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Value.(float64) > top[j].Value.(float64) })
	fmt.Println("Top pages:")
	for _, p := range top[:5] {
		fmt.Printf("  %-12s %.4f\n", p.Key, p.Value.(float64))
	}
	// Output:
	// Scheme          JCT (s)    cross-DC (MB)
	// Spark              91.2             3120
	// AggShuffle         44.8              400
	// Top pages:
	//   page0000     25.1138
	//   page0003     9.8664
	//   page0004     8.2846
	//   page0002     6.7051
	//   page0001     6.5890
}
