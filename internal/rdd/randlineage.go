package rdd

import (
	"fmt"
	"math/rand"

	"wanshuffle/internal/topology"
)

// RandomLineage constructs a random but valid job from a seeded grammar:
// input → (narrow | shuffle)* with bounded depth, ending in a combining
// shuffle that keeps outputs small and deterministic. The narrow operators
// include the per-record ones, MapPartitions (which needs its whole input)
// and Union with a second small input, so chains a fusing evaluator runs
// record by record, must materialise, and runs record by record again are
// all generated. The same seed
// rebuilds the identical lineage, so a backend's output can be compared
// against a fresh in-memory evaluation of the same seed — and different
// backends can be compared against each other. Input partitions are placed
// round-robin-randomly over hosts; modeled sizes are in megabytes.
func RandomLineage(seed int64, g *Graph, hosts []topology.HostID) *RDD {
	const mb = 1e6
	rng := rand.New(rand.NewSource(seed))

	input := func(name string, numParts int) *RDD {
		parts := make([]InputPartition, numParts)
		for p := range parts {
			n := rng.Intn(30) + 1
			recs := make([]Pair, n)
			for i := range recs {
				recs[i] = KV(fmt.Sprintf("k%02d", rng.Intn(12)), rng.Intn(100))
			}
			parts[p] = InputPartition{
				Host:         hosts[rng.Intn(len(hosts))],
				ModeledBytes: float64(rng.Intn(20)+1) * mb,
				Records:      recs,
			}
		}
		return g.Input(name, parts)
	}
	node := input(fmt.Sprintf("in%d", seed), rng.Intn(10)+2)

	depth := rng.Intn(4) + 1
	for d := 0; d < depth; d++ {
		switch rng.Intn(7) {
		case 0:
			node = node.Map(fmt.Sprintf("map%d", d), func(p Pair) Pair {
				return KV(p.Key, p.Value.(int)+1)
			})
		case 1:
			node = node.Filter(fmt.Sprintf("filter%d", d), func(p Pair) bool {
				return p.Value.(int)%3 != 0
			})
		case 2:
			node = node.FlatMap(fmt.Sprintf("flat%d", d), func(p Pair) []Pair {
				return []Pair{p, KV(p.Key+"x", p.Value)}
			})
		case 3:
			node = node.ReduceByKey(fmt.Sprintf("sum%d", d), rng.Intn(6)+2, func(a, b Value) Value {
				return a.(int) + b.(int)
			})
		case 4:
			grouped := node.GroupByKey(fmt.Sprintf("grp%d", d), rng.Intn(6)+2)
			node = grouped.Map(fmt.Sprintf("size%d", d), func(p Pair) Pair {
				return KV(p.Key, len(p.Value.([]Value)))
			})
		case 5:
			// Needs the whole partition, in no particular order.
			node = node.MapPartitions(fmt.Sprintf("parts%d", d), func(_ int, in []Pair) []Pair {
				out := make([]Pair, len(in))
				for i, p := range in {
					out[i] = KV(p.Key, p.Value.(int)+len(in)%5)
				}
				return out
			})
		case 6:
			extra := input(fmt.Sprintf("in%d.%d", seed, d), rng.Intn(2)+1)
			node = node.Union(fmt.Sprintf("union%d", d), extra.Map(fmt.Sprintf("neg%d", d), func(p Pair) Pair {
				return KV(p.Key, -p.Value.(int))
			}))
		}
	}
	return node.ReduceByKey("final", 4, func(a, b Value) Value {
		return a.(int) + b.(int)
	})
}
