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
	if !spec.CombinesMapSide() {
		return records
	}
	return combineAll(spec.Combine, records)
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
	switch {
	case spec.GroupAll:
		return groupByKey(records)
	case spec.Combine != nil:
		return combineAll(spec.Combine, records)
	}
	out := make([]Pair, len(records))
	if spec.SortKeys {
		sortByKey(out, records) // the copy is the sort's one permutation
	} else {
		copy(out, records)
	}
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

// Combiner folds records into one per key as they arrive: the map-side
// combine a fused map task emits into (plan.TaskOutput), and the reduce-side
// one. A key's first record is kept as it came and every later one is folded
// into it as fn(current, next), so values meet in arrival order. The table is
// an index from key to a position in one []Pair — one hash lookup per record,
// values updated in place in the slice that becomes the output — and grows
// with the distinct keys seen: a map task folding 150,000 words to 5,000
// never holds more than the 5,000.
type Combiner struct {
	fn    CombineFn
	index map[string]int32 // position in recs; a partition holds far fewer than 2³¹ keys
	recs  []Pair
}

// NewCombiner returns an empty combiner folding with fn.
func NewCombiner(fn CombineFn) *Combiner {
	return &Combiner{fn: fn, index: map[string]int32{}}
}

// Add folds one record in.
func (c *Combiner) Add(p Pair) {
	if i, ok := c.index[p.Key]; ok {
		c.recs[i].Value = c.fn(c.recs[i].Value, p.Value)
		return
	}
	c.index[p.Key] = int32(len(c.recs))
	c.recs = append(c.recs, p)
}

// Sorted returns the combined records in key order. It hands over the
// combiner's own slice, sorted in place: the combiner is spent afterwards.
func (c *Combiner) Sorted() []Pair {
	sortByKey(c.recs, c.recs)
	c.index = nil // its positions are stale now: a later Add panics instead of folding into the wrong key
	return c.recs
}

func combineAll(fn CombineFn, records []Pair) []Pair {
	c := NewCombiner(fn)
	for _, p := range records {
		c.Add(p)
	}
	return c.Sorted()
}

// groupByKey returns one record per key, in key order, whose value is the
// []Value of that key's values in arrival order. The same layout as Combiner — an index into slices that grow with the distinct
// keys — with the groups kept unboxed beside the records until the end, so
// appending to one does not allocate a new interface value per record.
func groupByKey(records []Pair) []Pair {
	index := map[string]int32{}
	var out []Pair
	var groups [][]Value
	for _, p := range records {
		i, ok := index[p.Key]
		if !ok {
			i = int32(len(out))
			index[p.Key] = i
			out = append(out, Pair{Key: p.Key})
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], p.Value)
	}
	for i, vs := range groups {
		out[i].Value = vs
	}
	sortByKey(out, out)
	return out
}
