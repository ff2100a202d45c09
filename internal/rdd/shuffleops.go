package rdd

// The helpers below implement the record-level semantics of a shuffle.
// They are shared between the simulated engine (internal/exec) and the
// in-memory reference evaluator (EvalLocal), so both sides agree exactly on
// data sizes and results. All outputs are key-sorted, making every
// evaluation deterministic regardless of map iteration order.

// MapSidePrepare applies map-side combining to one map output partition if
// the spec requests it (Sec. IV-C3: combine runs on the mapper, pipelined
// before any push), returning the records that will leave the mapper.
func MapSidePrepare(spec *ShuffleSpec, records []Pair) []Pair {
	if !spec.MapSideCombine || spec.Combine == nil {
		return records
	}
	out := combineByKey(spec.Combine, records)
	sortByKey(out, out)
	return out
}

// BucketRecords shards records into the spec's reduce partitions. The
// partitioner must be Ready.
func BucketRecords(spec *ShuffleSpec, records []Pair) [][]Pair {
	// One counting pass, so every bucket is allocated once at its final
	// size (and PartitionFor, a binary search under a range partitioner,
	// still runs once per record).
	part := make([]int32, len(records))
	counts := make([]int, spec.Partitioner.NumPartitions())
	for i := range records {
		k := spec.Partitioner.PartitionFor(records[i].Key)
		part[i] = int32(k)
		counts[k]++
	}
	out := make([][]Pair, len(counts))
	for k, c := range counts {
		if c > 0 {
			out[k] = make([]Pair, 0, c)
		}
	}
	for i, k := range part {
		out[k] = append(out[k], records[i])
	}
	return out
}

// ReduceAggregate applies the reduce-side semantics of the spec to one
// reduce partition's gathered shard records: combining, grouping, or
// sorting as requested. Like MapSidePrepare it only reads records — callers
// pass stored shards — and returns a slice of its own.
func ReduceAggregate(spec *ShuffleSpec, records []Pair) []Pair {
	var out []Pair
	switch {
	case spec.GroupAll:
		out = groupByKey(records)
	case spec.Combine != nil:
		out = combineByKey(spec.Combine, records)
	default:
		out = make([]Pair, len(records))
		if spec.SortKeys {
			sortByKey(out, records) // the copy is the sort's one permutation
		} else {
			copy(out, records)
		}
		return out
	}
	sortByKey(out, out)
	return out
}

// SampleKeys draws up to max keys from records deterministically (evenly
// strided), for range-partitioner preparation.
func SampleKeys(records []Pair, max int) []string {
	if max <= 0 {
		max = 1
	}
	stride := len(records)/max + 1
	var keys []string
	for i := 0; i < len(records); i += stride {
		keys = append(keys, records[i].Key)
	}
	return keys
}

// rangeSampleKeys is how many keys each map output contributes to a range
// partitioner's boundary sample.
const rangeSampleKeys = 1000

// RangeSample is one map output's contribution to its shuffle's range
// boundaries: up to rangeSampleKeys keys of the prepared output, or nil
// when PrepareRange would leave spec alone. A map task takes it while it
// still holds the records, so nothing reads the stored output back at the
// barrier.
func RangeSample(spec *ShuffleSpec, prepared []Pair) []string {
	if !spec.SampleForRange || spec.Partitioner.Ready() {
		return nil
	}
	return SampleKeys(prepared, rangeSampleKeys)
}

// PrepareRange is the map-stage barrier's sampling step (Spark's
// sortByKey sampling job): when spec asks for a sampled range partitioner
// that is not prepared yet, gather up to rangeSampleKeys keys from each of
// the numMaps map outputs through sample, in map order, and install the
// boundaries. Every barrier calls it — the sampler is the only part that
// differs (the samples a planner tracked with its map outputs, a
// registry's resident records). A ready partitioner, or a spec that needs
// none, is left alone and sample is never called.
func PrepareRange(spec *ShuffleSpec, numMaps int, sample func(mapPart, max int) ([]string, error)) error {
	if !spec.SampleForRange || spec.Partitioner.Ready() {
		return nil
	}
	var keys []string
	for m := 0; m < numMaps; m++ {
		ks, err := sample(m, rangeSampleKeys)
		if err != nil {
			return err
		}
		keys = append(keys, ks...)
	}
	spec.Partitioner.(*RangePartitioner).Prepare(keys)
	return nil
}

// combineByKey and groupByKey return one record per key in map order;
// their callers sort.
func combineByKey(fn CombineFn, records []Pair) []Pair {
	acc := make(map[string]Value, len(records))
	for _, p := range records {
		if cur, ok := acc[p.Key]; ok {
			acc[p.Key] = fn(cur, p.Value)
		} else {
			acc[p.Key] = p.Value
		}
	}
	out := make([]Pair, 0, len(acc))
	for k, v := range acc {
		out = append(out, Pair{Key: k, Value: v})
	}
	return out
}

func groupByKey(records []Pair) []Pair {
	acc := make(map[string][]Value, len(records))
	for _, p := range records {
		acc[p.Key] = append(acc[p.Key], p.Value)
	}
	out := make([]Pair, 0, len(acc))
	for k, vs := range acc {
		out = append(out, Pair{Key: k, Value: vs})
	}
	return out
}
