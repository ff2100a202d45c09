package plan

import (
	"fmt"
	"slices"

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
	top, err := stageTop(st)
	if err != nil {
		return nil, err
	}
	return evalPart(top, part, read)
}

// TaskOutput computes what task part of a single-phase stage produces: a
// result stage's output partition, or a map stage's output prepared for the
// stage's shuffle — rdd.MapSidePrepare(st.OutSpec, EvalStagePart(...)),
// record for record. How it gets there is decided here and nowhere else: when
// the shuffle combines map-side, the stage's chain runs record by record
// straight into the combiner's table (Sec. IV-C3: the combine is pipelined
// with the map, before any push), so the uncombined map output — 150,000
// words about to fold to 5,000 — is never built; any other stage's prepared
// output is its evaluated partition as it stands.
func TaskOutput(st *dag.Stage, part int, read ShuffleReader) ([]rdd.Pair, error) {
	top, err := stageTop(st)
	if err != nil {
		return nil, err
	}
	spec := st.OutSpec
	if spec == nil || !spec.CombinesMapSide() {
		return evalPart(top, part, read)
	}
	c := rdd.NewCombiner(spec.Combine)
	if err := eachPart(top, part, read, c.Add, nil); err != nil {
		return nil, err
	}
	return c.Sorted(), nil
}

func stageTop(st *dag.Stage) (*rdd.RDD, error) {
	if len(st.Phases) != 1 {
		return nil, fmt.Errorf("plan: stage %s has %d phases; the evaluator handles single-phase stages", st.Name(), len(st.Phases))
	}
	return st.Phases[0].Top, nil
}

// evalPart and eachPart are one evaluator in two forms: evalPart returns
// partition part of node as a slice, eachPart hands its records to emit in
// the same order without building one.
//
// A node with a per-record form (rdd.RDD.Each: Map, FlatMap, Filter, Union)
// fuses: eachPart runs its parents' eachPart with the node's operator
// composed in front of emit — no input slice, no output slice per operator —
// and evalPart of such a node is eachPart into an append. Everything else
// materialises, because it is a slice already or needs one: a leaf (its
// input partition is returned as it is, so a stage that is only a leaf
// copies nothing), a shuffle boundary (reduce-side aggregation sorts its
// whole shard), and MapPartitions (the user's function takes the partition);
// eachPart of those is evalPart and a loop. Transfer nodes never get here:
// dag cuts a phase at each one and Driver rejects multi-phase stages.
//
// expect, when not nil, hears from each materialised source how many records
// it is about to emit, before it emits them: evalPart makes room for that
// many at once, so a Map over a leaf fills a slice of the right size the way
// its Narrow would have, and does not double its way up to it.
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
	var recs []rdd.Pair
	collect := func(p rdd.Pair) { recs = append(recs, p) }
	expect := func(n int) { recs = slices.Grow(recs, n) }
	if node.Each != nil {
		if err := eachPart(node, part, read, collect, expect); err != nil {
			return nil, err
		}
		return recs, nil
	}
	if err := eachParent(node, part, read, collect, expect); err != nil {
		return nil, err
	}
	return node.Narrow(part, recs), nil
}

func eachPart(node *rdd.RDD, part int, read ShuffleReader, emit func(rdd.Pair), expect func(int)) error {
	if node.Each == nil {
		recs, err := evalPart(node, part, read)
		if err != nil {
			return err
		}
		if expect != nil {
			expect(len(recs))
		}
		for _, p := range recs {
			emit(p)
		}
		return nil
	}
	return eachParent(node, part, read, func(p rdd.Pair) { node.Each(p, emit) }, expect)
}

// eachParent hands emit the records of every parent partition that narrow
// node's partition part reads, in dependency order.
func eachParent(node *rdd.RDD, part int, read ShuffleReader, emit func(rdd.Pair), expect func(int)) error {
	for di := range node.Deps {
		d := &node.Deps[di]
		for _, pi := range d.ParentParts(part) {
			if err := eachPart(d.Parent, pi, read, emit, expect); err != nil {
				return err
			}
		}
	}
	return nil
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
