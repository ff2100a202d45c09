package rdd

// EvalLocal evaluates the lineage of r entirely in memory, ignoring
// placement, time, and the network — a single-machine reference
// implementation of the engine's semantics. It exists so that tests and
// workload validators can compare the simulated cluster's output against
// ground truth.
//
// EvalLocal prepares range partitioners from the full key set, whereas the
// engine samples at the map-stage barrier; both produce a valid total
// order, so sorted outputs are compared by order, not shard boundaries.
// Because Prepare mutates partitioner state, do not run EvalLocal and the
// engine over the *same* Graph instance; build the job twice.
func EvalLocal(r *RDD) [][]Pair {
	e := &localEval{memo: map[int][][]Pair{}}
	return e.eval(r)
}

type localEval struct {
	memo map[int][][]Pair
}

func (e *localEval) eval(r *RDD) [][]Pair {
	if got, ok := e.memo[r.ID]; ok {
		return got
	}
	var out [][]Pair
	switch {
	case len(r.Deps) == 0:
		out = make([][]Pair, len(r.Input))
		for i, p := range r.Input {
			out[i] = p.Records
		}
	case r.Deps[0].Kind == DepShuffle:
		out = e.evalShuffle(r)
	default:
		out = e.evalNarrow(r)
	}
	e.memo[r.ID] = out
	return out
}

func (e *localEval) evalNarrow(r *RDD) [][]Pair {
	out := make([][]Pair, r.NumParts())
	parent := e.eval(r.Deps[0].Parent)
	for i := range out {
		out[i] = eachAll(r.Each, parent[i])
	}
	return out
}

// eachAll applies each to every record of in and returns what it emits.
func eachAll(each EachFn, in []Pair) []Pair {
	out := make([]Pair, 0, len(in))
	emit := func(p Pair) { out = append(out, p) }
	for _, p := range in {
		each(p, emit)
	}
	return out
}

func (e *localEval) evalShuffle(r *RDD) [][]Pair {
	// Each reduce partition is, per dep, the list of its map outputs'
	// shards in map order, handed to ReducePartition as runs: no shard is
	// copied before the aggregation.
	runs := make([][][][]Pair, r.NumParts())
	for i := range runs {
		runs[i] = make([][][]Pair, len(r.Deps))
	}
	for di := range r.Deps {
		d := &r.Deps[di]
		if d.Kind != DepShuffle {
			panic("rdd: mixed narrow and shuffle deps on one RDD")
		}
		spec := d.Shuffle
		parent := e.eval(d.Parent)
		if !spec.Partitioner.Ready() {
			var sample []string
			for _, part := range parent {
				prepared := MapSidePrepare(spec, part)
				sample = append(sample, SampleKeys(prepared, 1000)...)
			}
			spec.Partitioner.(*rangePartitioner).Prepare(sample)
		}
		for _, part := range parent {
			prepared := MapSidePrepare(spec, part)
			for i, shard := range BucketRecords(spec, prepared) {
				runs[i][di] = append(runs[i][di], shard)
			}
		}
	}
	out := make([][]Pair, r.NumParts())
	for i := range runs {
		out[i] = ReducePartition(r, i, runs[i])
	}
	return out
}

// CollectLocal flattens EvalLocal output into one record slice, partition
// by partition.
func CollectLocal(r *RDD) []Pair {
	var out []Pair
	for _, part := range EvalLocal(r) {
		out = append(out, part...)
	}
	return out
}
