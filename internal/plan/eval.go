package plan

import (
	"fmt"
	"slices"
	"sync"

	"wanshuffle/internal/rdd"
)

// ShuffleReader supplies a task's shuffle input: the runs of one reduce
// partition of one shuffle — every map output's shard for that partition, in
// map order, as the backend stored or fetched it (a fetched shard may be
// several chunks) and never copied into one slice. The runs are shared with
// the store, so a consumer only reads them: rdd.ReducePartition takes them
// as they are. Backends build it on Task.Gather, which owns the map-order
// loop, and supply only the per-output read — a TCP fetch for the live
// cluster, a shard lookup for memBackend.
type ShuffleReader func(spec *rdd.ShuffleSpec, reducePart int) ([][]rdd.Pair, error)

// TaskOutput computes what task t produces: a result stage's output
// partition, or a map stage's output prepared for the stage's shuffle —
// rdd.MapSidePrepare(t.Stage.OutSpec, evalPart(...)) of its first phase,
// record for record. How it gets there is decided here and nowhere else: when
// the shuffle combines map-side, the stage's chain runs record by record
// straight into the combiner's table (Sec. IV-C3: the combine is pipelined
// with the map, before any push), so the uncombined map output — 150,000
// words about to fold to 5,000 — is never built; any other stage's prepared
// output is its evaluated partition as it stands.
// Both start from the first phase: a pushing stage's second is only its
// TransferToAuto node, whose work is the push the backend makes.
//
// A map output comes back with its record-codec bytes (rdd.EncodedSize) and
// its rdd.RangeSample. This is the one place it meets the codec's check: a
// value the codec cannot carry fails the task (*rdd.UnsupportedValueError)
// before any backend stores or pushes it.
//
// A Cached node's partition comes from the cache of the task's site, which
// the driver hands it, when an earlier task of the job computed it there,
// and goes into it otherwise. A Task the driver did not make caches nothing.
func TaskOutput(t Task, read ShuffleReader) (TaskResult, error) {
	top, spec, part, cache := t.Stage.Phases[0].Top, t.Stage.OutSpec, t.Part, t.cache
	var out []rdd.Pair
	var err error
	if spec == nil || !spec.CombinesMapSide() {
		out, err = evalPart(top, part, read, cache)
	} else {
		c := rdd.NewCombiner(spec.Combine)
		if err = eachPart(top, part, read, cache, c.Add, nil); err == nil {
			out = c.Unsorted()
		}
	}
	if err != nil || spec == nil {
		return TaskResult{Records: out}, err
	}
	size, err := rdd.EncodedSize(out)
	if err != nil {
		return TaskResult{}, fmt.Errorf("plan: map output of shuffle %d: %w", spec.ID, err)
	}
	return TaskResult{Records: out, Bytes: size, sample: rdd.RangeSample(spec, out)}, nil
}

// siteCache holds the partitions of Cached RDDs (rdd.RDD.Cached) that one
// task site computed in one job, by node ID and partition: Spark's block
// manager's rdd_<id>_<part> blocks, without the eviction. The driver makes
// one per site when its job starts and hands each task its site's, so none
// outlives the job: node IDs restart with every rdd.Graph, so a partition
// kept into the next job could answer for a node it was not computed from.
// A task placed on another site, or a retry that moved, misses and
// recomputes from the lineage, as Spark does. A cached partition is shared
// by every task that reads it, and they only read it, as they read a leaf's
// input. The zero value is empty and ready; it locks internally.
type siteCache struct {
	mu    sync.Mutex
	parts map[cacheKey][]rdd.Pair
}

type cacheKey struct{ node, part int }

func (c *siteCache) get(k cacheKey) ([]rdd.Pair, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs, ok := c.parts[k]
	return recs, ok
}

// put stores recs under k unless a task that computed the same partition
// alongside stored it first, and returns the stored partition: every reader
// shares one copy.
func (c *siteCache) put(k cacheKey, recs []rdd.Pair) []rdd.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	if had, ok := c.parts[k]; ok {
		return had
	}
	if c.parts == nil {
		c.parts = map[cacheKey][]rdd.Pair{}
	}
	c.parts[k] = recs
	return recs
}

// evalPart and eachPart are one evaluator in two forms: evalPart returns
// partition part of node as a slice, eachPart hands its records to emit in
// the same order without building one. Both read shuffle input through read
// and Cached partitions through cache (nil: nothing is cached). Their record
// semantics are exactly rdd.EvalLocal's, so every backend agrees with the
// in-memory reference by construction.
//
// A narrow node (Map, MapMulti, Filter) fuses: eachPart runs its one
// parent partition's eachPart with the node's operator (rdd.RDD.Each)
// composed in front of emit — no input slice, no output slice per operator —
// and evalPart of such a node is eachPart into an append. Everything else
// materialises, because it is a slice already or needs one: a leaf (its
// input partition is returned as it is, so a stage that is only a leaf
// copies nothing), a shuffle boundary (reduce-side aggregation sorts its
// whole shard) and, when the task has a cache, a Cached node (its partition
// is kept whole for the job's later stages); eachPart of those is evalPart
// and a loop. Transfer nodes never get here: dag cuts a phase at each one,
// and the evaluator starts below it.
//
// expect, when not nil, hears from each materialised source how many records
// it is about to emit, before it emits them: evalPart makes room for that
// many at once, so a Map over a leaf fills a slice of the right size, and
// does not double its way up to it.
func evalPart(node *rdd.RDD, part int, read ShuffleReader, cache *siteCache) ([]rdd.Pair, error) {
	if !node.Cached || cache == nil {
		return compute(node, part, read, cache)
	}
	k := cacheKey{node.ID, part}
	if recs, ok := cache.get(k); ok {
		return recs, nil
	}
	recs, err := compute(node, part, read, cache)
	if err != nil {
		return nil, err
	}
	return cache.put(k, recs), nil
}

// compute evaluates partition part of node from its inputs, whether or not
// node is cached.
func compute(node *rdd.RDD, part int, read ShuffleReader, cache *siteCache) ([]rdd.Pair, error) {
	if len(node.Deps) == 0 {
		return node.Input[part].Records, nil
	}
	if node.Deps[0].Kind == rdd.DepShuffle {
		// A shuffle boundary: read each dep's runs for this partition (a
		// cogroup has two), then rdd.ReducePartition, which only reads
		// them, so they go in as the reader returned them.
		var buf [2][][]rdd.Pair // a cogroup's two deps hold without a heap slice
		runs := buf[:0]
		for di := range node.Deps {
			r, err := read(node.Deps[di].Shuffle, part)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		return rdd.ReducePartition(node, part, runs), nil
	}
	var recs []rdd.Pair
	collect := func(p rdd.Pair) { recs = append(recs, p) }
	expect := func(n int) { recs = slices.Grow(recs, n) }
	if err := eachNarrow(node, part, read, cache, collect, expect); err != nil {
		return nil, err
	}
	return recs, nil
}

func eachPart(node *rdd.RDD, part int, read ShuffleReader, cache *siteCache, emit func(rdd.Pair), expect func(int)) error {
	if node.Each == nil || node.Cached && cache != nil {
		recs, err := evalPart(node, part, read, cache)
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
	return eachNarrow(node, part, read, cache, emit, expect)
}

// eachNarrow hands emit the records of partition part of narrow node: its
// one parent's partition part, through node's operator.
func eachNarrow(node *rdd.RDD, part int, read ShuffleReader, cache *siteCache, emit func(rdd.Pair), expect func(int)) error {
	return eachPart(node.Deps[0].Parent, part, read, cache, func(p rdd.Pair) { node.Each(p, emit) }, expect)
}
