package plan

import (
	"fmt"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
)

// ShuffleReader supplies a task's shuffle input: the gathered records of
// one reduce partition of one shuffle (every map output's shard for that
// partition, concatenated in map order). Backends build it on Task.Gather,
// which owns the map-order loop, and supply only the per-output read — a
// TCP fetch for the live cluster, a shard lookup for MemBackend.
type ShuffleReader func(spec *rdd.ShuffleSpec, reducePart int) ([]rdd.Pair, error)

// EvalStagePart computes output partition part of a single-phase stage,
// reading shuffle boundaries through read. The record semantics — narrow
// chains, dependency mappings, reduce-side aggregation, post-shuffle
// transforms — are exactly those of rdd.EvalLocal, so every backend built
// on this evaluator agrees with the in-memory reference by construction.
func EvalStagePart(st *dag.Stage, part int, read ShuffleReader) ([]rdd.Pair, error) {
	if len(st.Phases) != 1 {
		return nil, fmt.Errorf("plan: stage %s has %d phases; EvalStagePart handles single-phase stages", st.Name(), len(st.Phases))
	}
	return evalPart(st.Phases[0].Top, part, read)
}

func evalPart(node *rdd.RDD, part int, read ShuffleReader) ([]rdd.Pair, error) {
	if len(node.Deps) == 0 {
		return node.Input[part].Records, nil
	}
	if node.Deps[0].Kind == rdd.DepShuffle {
		// A shuffle boundary: gather every dep's shard for this partition,
		// then apply the reduce-side semantics once (cogroup deps agree on
		// aggregation, as in rdd.EvalLocal).
		// ReduceAggregate only reads its input, so the first dep's shard
		// goes in as the reader returned it; its capacity is cut to its
		// length, so a cogroup's second shard is appended to a copy.
		var recs []rdd.Pair
		for di := range node.Deps {
			shard, err := read(node.Deps[di].Shuffle, part)
			if err != nil {
				return nil, err
			}
			if di == 0 {
				recs = shard[:len(shard):len(shard)]
			} else {
				recs = append(recs, shard...)
			}
		}
		agg := rdd.ReduceAggregate(node.Deps[0].Shuffle, recs)
		if node.PostShuffle != nil {
			agg = node.PostShuffle(part, agg)
		}
		return agg, nil
	}
	var in []rdd.Pair
	for di := range node.Deps {
		d := &node.Deps[di]
		for _, pi := range d.ParentParts(part) {
			pr, err := evalPart(d.Parent, pi, read)
			if err != nil {
				return nil, err
			}
			in = append(in, pr...)
		}
	}
	return node.Narrow(part, in), nil
}

// leafBytes sizes the leaf input partitions evalPart reads for partition
// part of node: down the same narrow chain, stopping at shuffle boundaries.
func leafBytes(node *rdd.RDD, part int) (total float64) {
	if len(node.Deps) == 0 {
		return rdd.EncodedSize(node.Input[part].Records)
	}
	for di := range node.Deps {
		if dep := &node.Deps[di]; dep.Kind == rdd.DepNarrow {
			for _, pi := range dep.ParentParts(part) {
				total += leafBytes(dep.Parent, pi)
			}
		}
	}
	return total
}
