package rdd

import (
	"slices"
	"sync"
)

// The helpers below implement the record-level semantics of a shuffle.
// They are shared between the simulated engine (internal/exec) and the
// in-memory reference evaluator (EvalLocal), so both sides agree exactly on
// data sizes and results. Every output is in an order fixed by its input's
// record order, never by map iteration order: a map-side combine keeps its
// keys' first-arrival order, and a reduce-side one and a sorting shuffle
// are key-sorted.

// MapSidePrepare applies map-side combining to one map output partition if
// the spec requests it (Sec. IV-C3: combine runs on the mapper, pipelined
// before any push), returning the records that will leave the mapper. A
// combined output is in its keys' first-arrival order (combiner.Unsorted):
// its one reader, the reduce-side combine, hashes it again.
func MapSidePrepare(spec *ShuffleSpec, records []Pair) []Pair {
	if !spec.CombinesMapSide() {
		return records
	}
	c := NewCombiner(spec.Combine)
	for _, p := range records {
		c.Add(p)
	}
	return c.Unsorted()
}

// BucketRecords shards one output into the spec's reduce partitions. The
// output comes as runs read in order as if concatenated, so a caller holding
// it in several slices (a push's decoded chunks) passes them as they are.
// The partitioner must be Ready.
func BucketRecords(spec *ShuffleSpec, runs ...[]Pair) [][]Pair {
	// One counting pass over every run, so every bucket is allocated once at
	// its final size (and PartitionFor, a binary search under a range
	// partitioner, still runs once per record).
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	part := make([]int32, 0, n)
	counts := make([]int, spec.Partitioner.NumPartitions())
	for _, run := range runs {
		for i := range run {
			k := spec.Partitioner.PartitionFor(run[i].Key)
			part = append(part, int32(k))
			counts[k]++
		}
	}
	out := make([][]Pair, len(counts))
	for k, c := range counts {
		if c > 0 {
			out[k] = make([]Pair, 0, c)
		}
	}
	i := 0
	for _, run := range runs {
		for _, p := range run {
			out[part[i]] = append(out[part[i]], p)
			i++
		}
	}
	return out
}

// ReduceAggregate applies the reduce-side semantics of the spec to one
// reduce partition, handed over as its runs — the map outputs' shards as
// they were stored or fetched, in map order, read as if concatenated:
// combining or sorting as requested (a grouping is the PostShuffle step over
// the sorted records). A combining spec folds every run straight into the
// combiner; a sorting one permutes the runs' records straight into its
// output; any other copies the runs into it in order. Like MapSidePrepare it
// only reads records — callers pass stored shards — and returns a slice of
// its own.
func ReduceAggregate(spec *ShuffleSpec, runs ...[]Pair) []Pair {
	if spec.Combine != nil {
		return combineAll(spec.Combine, runs...)
	}
	return gather(spec, make([]Pair, runsLen(runs)), runs)
}

// gather is ReduceAggregate for a spec that does not combine, into dst,
// which has the runs' total length and shares no memory with them.
func gather(spec *ShuffleSpec, dst []Pair, runs [][]Pair) []Pair {
	if spec.SortKeys {
		sortByKey(dst, runs...) // the permutation is the one copy
		return dst
	}
	at := 0
	for _, run := range runs {
		at += copy(dst[at:], run)
	}
	return dst
}

func runsLen(runs [][]Pair) int {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	return n
}

// ReducePartition is the shuffle boundary, the one every evaluator runs:
// partition part of the shuffled RDD node from its runs, runs[d] being
// dependency d's (its map outputs' shards, stored or fetched, in map order).
// Each dependency's runs are aggregated on their own, as ReduceAggregate
// does, and PostShuffle gets one aggregate per dependency; without it, the
// aggregates are the partition, concatenated in dependency order. The
// aggregates of dependencies that do not combine are windows of one array,
// so a CoGroup's two sorted sides cost one allocation, as one side does. It
// only reads its runs.
func ReducePartition(node *RDD, part int, runs [][][]Pair) []Pair {
	if len(node.Deps) == 1 && node.PostShuffle == nil {
		return ReduceAggregate(node.Deps[0].Shuffle, runs[0]...)
	}
	n := 0
	for d := range node.Deps {
		if node.Deps[d].Shuffle.Combine == nil {
			n += runsLen(runs[d])
		}
	}
	back := make([]Pair, n)
	held := aggScratch.Get().(*[][]Pair)
	aggs := (*held)[:0]
	for d := range node.Deps {
		spec := node.Deps[d].Shuffle
		if spec.Combine != nil {
			aggs = append(aggs, combineAll(spec.Combine, runs[d]...))
			continue
		}
		m := runsLen(runs[d])
		aggs = append(aggs, gather(spec, back[:m:m], runs[d]))
		back = back[m:]
	}
	var out []Pair
	if node.PostShuffle != nil {
		out = node.PostShuffle(part, aggs)
	} else {
		out = slices.Concat(aggs...)
	}
	clear(aggs)
	*held = aggs
	aggScratch.Put(held)
	return out
}

// aggScratch recycles the slice of aggregates ReducePartition hands
// PostShuffle, which a call through a function value would otherwise move
// to the heap on every reduce partition.
var aggScratch = sync.Pool{New: func() any { return new([][]Pair) }}

// ShuffledSize is the real size the simulator prices recs at as the map
// output of spec's shuffle: SizeOfAll, plus one byte per record on a
// CoGroupSide.
func ShuffledSize(spec *ShuffleSpec, recs []Pair) float64 {
	s := SizeOfAll(recs)
	if spec.CoGroupSide {
		s += float64(len(recs))
	}
	return s
}

// SampleKeys draws up to max keys from records deterministically (evenly
// strided), for range-partitioner preparation.
func SampleKeys(records []Pair, max int) []string {
	if max <= 0 {
		max = 1
	}
	if len(records) == 0 {
		return nil
	}
	stride := len(records)/max + 1
	keys := make([]string, 0, (len(records)+stride-1)/stride)
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
	if spec.Partitioner.Ready() {
		return nil
	}
	return SampleKeys(prepared, rangeSampleKeys)
}

// PrepareRange is the map-stage barrier's sampling step (Spark's
// sortByKey sampling job): when spec's partitioner is not ready — a range
// partitioner not prepared yet — install the boundaries drawn from samples,
// each map output's RangeSample in map order. Both backends' barriers call
// it through shuffle.Tracker.PrepareRange, over the samples their map tasks
// recorded. A ready partitioner (every hash one) is left alone.
func PrepareRange(spec *ShuffleSpec, samples [][]string) {
	if spec.Partitioner.Ready() {
		return
	}
	n := 0
	for _, ks := range samples {
		n += len(ks)
	}
	keys := make([]string, 0, n)
	for _, ks := range samples {
		keys = append(keys, ks...)
	}
	spec.Partitioner.(*rangePartitioner).Prepare(keys)
}

// combiner folds records into one per key as they arrive: the map-side
// combine a fused map task emits into (plan.TaskOutput), and the reduce-side
// one. A key's first record is kept as it came and every later one is folded
// into it as fn(current, next), so values meet in arrival order. The table is
// an index from key to a position in one []Pair — one hash lookup per record,
// values updated in place — and holds the distinct keys seen: a map task
// folding 150,000 words to 5,000 never holds more than the 5,000.
//
// The table is recycled: a combiner takes one from a pool, Sorted or
// Unsorted copies its records into a fresh slice of exact length and gives
// the emptied table back, so a warm combine allocates only its output.
// Combiners in different goroutines take different tables.
type combiner struct {
	fn CombineFn
	t  *combineTable // nil once Sorted or Unsorted has returned
}

type combineTable struct {
	index map[string]int32 // position in recs; a partition holds far fewer than 2³¹ keys
	recs  []Pair           // in their keys' first-arrival order
}

// maxPooledKeys bounds the tables the pool keeps: clearing a map costs its
// capacity, so a table grown by one huge combine is left to the collector
// rather than charged to every small combine after it.
const maxPooledKeys = 1 << 16

var combineTables = sync.Pool{New: func() any { return &combineTable{index: map[string]int32{}} }}

// NewCombiner returns an empty combiner folding with fn.
func NewCombiner(fn CombineFn) *combiner {
	return &combiner{fn: fn, t: combineTables.Get().(*combineTable)}
}

// Add folds one record in. It panics on a spent combiner.
func (c *combiner) Add(p Pair) {
	t := c.t
	if t == nil {
		panic("rdd: Add on a spent Combiner")
	}
	if i, ok := t.index[p.Key]; ok {
		t.recs[i].Value = c.fn(t.recs[i].Value, p.Value)
		return
	}
	t.index[p.Key] = int32(len(t.recs))
	t.recs = append(t.recs, p)
}

// Sorted returns the combined records in key order, in a slice of their own
// (the sort's permutation is the copy): a reduce partition's order. The
// combiner is spent afterwards: its table goes back to the pool.
func (c *combiner) Sorted() []Pair {
	t := c.t
	c.t = nil
	var out []Pair // nil when nothing was added, as a partition with no records is
	if len(t.recs) > 0 {
		out = make([]Pair, len(t.recs))
		sortByKey(out, t.recs)
	}
	t.recycle()
	return out
}

// Unsorted returns the combined records in their keys' first-arrival order,
// in a slice of their own: a map output's order, which no reader depends
// on. It holds at most one record per key, so however a reducer interleaves
// map outputs, each key's values still meet in map order. The combiner is
// spent afterwards, as after Sorted.
func (c *combiner) Unsorted() []Pair {
	t := c.t
	c.t = nil
	var out []Pair
	if len(t.recs) > 0 {
		out = make([]Pair, len(t.recs))
		copy(out, t.recs)
	}
	t.recycle()
	return out
}

// recycle empties t and gives it back to the pool, unless it grew past
// maxPooledKeys.
func (t *combineTable) recycle() {
	if len(t.recs) > maxPooledKeys {
		return
	}
	clear(t.index)
	clear(t.recs) // drop the keys and values, which belong to the output now
	t.recs = t.recs[:0]
	combineTables.Put(t)
}

// combineAll is the reduce-side combine: runs folded in order, key-sorted.
func combineAll(fn CombineFn, runs ...[]Pair) []Pair {
	c := NewCombiner(fn)
	for _, run := range runs {
		for _, p := range run {
			c.Add(p)
		}
	}
	return c.Sorted()
}

// groupRuns makes one record per run of equal keys in sorted, in key order.
// A record's value is a T in one []T allocated for the whole partition,
// filled by fill(run, vals, slot) and boxed over its slot (boxAs, typ being
// a zero T), so a grouping costs the same few allocations however many keys
// its partition holds. vals is the run's window of one []Value allocated for
// the whole partition, len(run) long, for fill to fill and keep. Each
// window's capacity ends where it does, so a consumer appending to one key's
// values copies them instead of overwriting the next key's.
func groupRuns[T any](sorted []Pair, typ Value, fill func(run []Pair, vals []Value, slot *T)) []Pair {
	keys := 0
	for i := range sorted {
		if i == 0 || sorted[i].Key != sorted[i-1].Key {
			keys++
		}
	}
	out := make([]Pair, 0, keys)
	vals := make([]Value, len(sorted))
	slots := make([]T, keys)
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Key == sorted[lo].Key {
			hi++
		}
		slot := &slots[len(out)]
		fill(sorted[lo:hi], vals[lo:hi:hi], slot)
		out = append(out, Pair{Key: sorted[lo].Key, Value: boxAs(typ, slot)})
		lo = hi
	}
	return out
}

// The type words of grouped and joined values (boxAs). Boxing these zero
// values once, here, is what keeps boxing each key's value allocation-free.
var (
	valuesType Value = []Value(nil)
	groupsType Value = [2][]Value{}
)
