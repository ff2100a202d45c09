package rdd

import (
	"fmt"
	"math/rand"

	"wanshuffle/internal/topology"
)

// RandomLineage constructs a random but valid job from a seeded grammar:
// input → (narrow | shuffle)* with bounded depth, ending in a combining
// shuffle that keeps outputs small and deterministic. The narrow operators
// are the per-record ones, so every stage is a chain over one base; the
// shuffles include Joins and CoGroups with a second small input, so the
// two-dependency boundary is generated too. The same seed rebuilds the
// identical lineage, so a backend's output can be compared against a fresh
// in-memory evaluation of the same seed — and different backends can be
// compared against each other. Input partitions are placed
// round-robin-randomly over hosts; modeled sizes are in megabytes.
func RandomLineage(seed int64, g *Graph, hosts []topology.HostID) *RDD {
	const mb = 1e6
	rng := rand.New(rand.NewSource(seed))

	input := func(rng *rand.Rand, name string, numParts int) *RDD {
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
	node := input(rng, fmt.Sprintf("in%d", seed), rng.Intn(10)+2)
	// The cogroup steps draw from a stream of their own, so the other
	// steps' draws, which tests choose seeds by, do not depend on them.
	extra := rand.New(rand.NewSource(seed ^ 0xc06))

	depth := rng.Intn(4) + 1
	for d := 0; d < depth; d++ {
		if extra.Intn(4) == 0 {
			node = cogroupStep(node, d, input(extra, fmt.Sprintf("in%d.cg%d", seed, d), extra.Intn(2)+1), extra)
		}
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
			node = node.MapMulti(fmt.Sprintf("flat%d", d), func(p Pair, emit func(Pair)) {
				emit(p)
				emit(KV(p.Key+"x", p.Value))
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
			node = node.Map(fmt.Sprintf("mod%d", d), func(p Pair) Pair {
				return KV(p.Key, p.Value.(int)%5)
			})
		case 6:
			other := input(rng, fmt.Sprintf("in%d.%d", seed, d), rng.Intn(2)+1)
			node = node.Join(fmt.Sprintf("join%d.in", d), other, rng.Intn(6)+2).Map(fmt.Sprintf("diff%d", d), func(p Pair) Pair {
				pair := p.Value.([]Value)
				return KV(p.Key, pair[0].(int)-pair[1].(int))
			})
		}
	}
	return node.ReduceByKey("final", 4, func(a, b Value) Value {
		return a.(int) + b.(int)
	})
}

// cogroupStep is RandomLineage's two-dependency shuffle: it cogroups or
// joins node with other, whose keys it moves to k06…k17 so they overlap
// node's (k00…k11 and their "x" copies) only in part — a cogroup has keys
// on one side only and a join drops them — and maps each record back to an
// int.
func cogroupStep(node *RDD, d int, other *RDD, rng *rand.Rand) *RDD {
	other = other.Map(fmt.Sprintf("shift%d", d), func(p Pair) Pair {
		return KV(fmt.Sprintf("k%02d", 6+p.Value.(int)%12), p.Value)
	})
	numParts := rng.Intn(6) + 2
	if rng.Intn(2) == 0 {
		return node.CoGroup(fmt.Sprintf("cogroup%d", d), other, numParts).Map(fmt.Sprintf("fold%d", d), func(p Pair) Pair {
			sides := p.Value.([2][]Value)
			n := 100 * len(sides[1])
			for _, v := range sides[0] {
				n += v.(int)
			}
			return KV(p.Key, n)
		})
	}
	return node.Join(fmt.Sprintf("join%d", d), other, numParts).Map(fmt.Sprintf("pick%d", d), func(p Pair) Pair {
		pair := p.Value.([]Value)
		return KV(p.Key, pair[0].(int)-pair[1].(int))
	})
}
