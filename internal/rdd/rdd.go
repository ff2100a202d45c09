package rdd

import (
	"fmt"

	"wanshuffle/internal/topology"
)

// Graph owns a lineage of RDDs and hands out unique IDs. One Graph
// corresponds to one driver program.
type Graph struct {
	nextID     int
	shuffleSeq int
	rdds       []*RDD
}

// NewGraph returns an empty lineage graph.
func NewGraph() *Graph { return &Graph{} }

// RDDs returns every node registered in the graph, in creation order.
func (g *Graph) RDDs() []*RDD {
	out := make([]*RDD, len(g.rdds))
	copy(out, g.rdds)
	return out
}

func (g *Graph) register(r *RDD) *RDD {
	r.ID = g.nextID
	g.nextID++
	g.rdds = append(g.rdds, r)
	return r
}

// depKind distinguishes dependency types. Narrow dependencies pipeline
// within a stage; shuffle dependencies cut stage boundaries.
type depKind int

// Dependency kinds.
const (
	DepNarrow depKind = iota + 1
	DepShuffle
)

// Dependency links an RDD to one parent. A narrow RDD has exactly one
// dependency, and its partition p reads the parent's partition p; a
// shuffled RDD's dependencies are all shuffles (a CoGroup has two).
type Dependency struct {
	Kind   depKind
	Parent *RDD

	// Shuffle holds the shuffle contract (shuffle deps only).
	Shuffle *ShuffleSpec
}

// CombineFn merges two values of the same key (must be commutative and
// associative, as in Spark's reduceByKey contract).
type CombineFn func(a, b Value) Value

// ShuffleSpec is the contract of one shuffle: how map output is sharded and
// how each reducer aggregates its shard. A grouping (GroupByKey, CoGroup) is
// no aggregation of its own: it is a SortKeys shuffle (one per side for a
// CoGroup) whose RDD's PostShuffle step groups the key-sorted records.
type ShuffleSpec struct {
	// ID is unique per graph, assigned on creation.
	ID int
	// Partitioner shards keys into reduce partitions.
	Partitioner partitioner
	// MapSideCombine runs Combine on the mapper before data leaves it
	// (Sec. IV-C3: pipelined before the push when possible).
	MapSideCombine bool
	// Combine merges values per key. Nil means values pass through
	// uncombined (sort-style shuffles and groupings).
	Combine CombineFn
	// SortKeys sorts each reduce partition by key after aggregation.
	SortKeys bool
	// CoGroupSide marks one side of a CoGroup. Only the simulator reads it:
	// its cost model, which the modeled workloads are calibrated with,
	// prices each side's records one byte larger (ShuffledSize) and charges
	// a pass over the side's map output.
	CoGroupSide bool
}

// CombinesMapSide reports whether a map task folds its output per key before
// it leaves the mapper. It is the one condition MapSidePrepare and a planner's
// fused map-side evaluation both branch on.
func (s *ShuffleSpec) CombinesMapSide() bool { return s.MapSideCombine && s.Combine != nil }

// TransferSpec directs a TransferredRDD (the paper's transferTo): push each
// parent partition to a receiver task in the target datacenter(s).
type TransferSpec struct {
	// Auto selects the aggregator automatically: the datacenter storing
	// the largest amount of map input (Sec. IV-D).
	Auto bool
	// DC is the explicit aggregator datacenter when Auto is false.
	DC topology.DCID
	// K aggregates into the top-K datacenters instead of one (Sec. III-B:
	// "aggregating all shuffle input into a subset of datacenters which
	// store the largest fractions"); partitions round-robin over them.
	// 0 or 1 means a single aggregator, the paper's default.
	K int
}

// postShuffleFn computes one reduce partition of a shuffled RDD from its
// dependencies' aggregated records: sorted[d] is dependency d's reduce-side
// aggregate (ReduceAggregate), key-sorted when its spec sorts. It only
// reads them.
type postShuffleFn func(part int, sorted [][]Pair) []Pair

// EachFn is a narrow RDD's operator, applied record by record: it calls
// emit, in order, with every record p turns into (none, for a filtered
// record). An evaluator composes a chain of them into one loop with no slice
// between the operators.
type EachFn func(p Pair, emit func(Pair))

// RDD is one dataset node in the lineage graph.
type RDD struct {
	ID   int
	Name string
	// NumParts is the partition count. For shuffle outputs it equals the
	// partitioner's shard count.
	Deps     []Dependency
	numParts int

	// Input holds source partitions (leaf RDDs only).
	Input []InputPartition

	// Each computes a narrow RDD's partition p from partition p of its one
	// parent, record by record (narrow RDDs only: Map, MapMulti, Filter, and
	// the identity for transfer nodes).
	Each EachFn

	// PostShuffle optionally transforms a reduce partition after shuffle
	// aggregation (ReducePartition). A grouping is one: over the key-sorted
	// records each SortKeys dependency leaves, it turns each key's records
	// into one record. Nil means the dependencies' aggregates, concatenated.
	PostShuffle postShuffleFn

	// Transfer marks a TransferredRDD.
	Transfer *TransferSpec

	// Cached requests materialization after first computation: later reads
	// take the cached copy instead of recomputing (Spark's cache()). Where
	// and how long a copy lives is the backend's. The simulator
	// (exec.Engine) keeps it on its host for the engine's life, so later
	// jobs over the same lineage read it too; a task on another host reads
	// it over the network. Under plan's driver (the live cluster and the
	// in-memory backend) the driver keeps it in the cache of the site that
	// computed it until the job ends; a task on another site recomputes it
	// from the lineage. EvalLocal computes every node once per call.
	Cached bool

	graph *Graph
}

// InputPartition is a leaf partition: real records pinned to a host, plus
// the data volume it represents in the modeled workload.
type InputPartition struct {
	Host topology.HostID
	// ModeledBytes is the partition's size in the paper-scale workload
	// (e.g. its share of WordCount's 3.2 GB). The engine scales the real
	// record bytes to this figure for all timing and traffic purposes.
	ModeledBytes float64
	Records      []Pair
}

// NumParts returns the partition count.
func (r *RDD) NumParts() int { return r.numParts }

// Graph returns the owning lineage graph.
func (r *RDD) Graph() *Graph { return r.graph }

// Input creates a leaf RDD from pre-placed partitions.
func (g *Graph) Input(name string, parts []InputPartition) *RDD {
	if len(parts) == 0 {
		panic("rdd: Input needs at least one partition")
	}
	return g.register(&RDD{
		Name:     name,
		numParts: len(parts),
		Input:    parts,
		graph:    g,
	})
}

// eachChild builds the narrow RDD of a per-record operator.
func (r *RDD) eachChild(name string, each EachFn) *RDD {
	return r.graph.register(&RDD{
		Name:     name,
		numParts: r.numParts,
		Deps:     []Dependency{{Kind: DepNarrow, Parent: r}},
		Each:     each,
		graph:    r.graph,
	})
}

// identity is the operator of a transfer node: each record passes through
// as it is.
func identity(p Pair, emit func(Pair)) { emit(p) }

// Map applies fn to every record.
func (r *RDD) Map(name string, fn func(Pair) Pair) *RDD {
	return r.eachChild(name, func(p Pair, emit func(Pair)) { emit(fn(p)) })
}

// MapMulti turns every record into the records fn emits, in order: none,
// one or many (a flat-map that builds no slice per record; the name is
// Java's Stream.mapMulti).
func (r *RDD) MapMulti(name string, fn EachFn) *RDD { return r.eachChild(name, fn) }

// FlatMap is MapMulti for a function that returns its records as a slice.
// It stays only for perf/'s wordcount closure (ROADMAP 1(b)).
func (r *RDD) FlatMap(name string, fn func(Pair) []Pair) *RDD {
	return r.eachChild(name, func(p Pair, emit func(Pair)) {
		for _, q := range fn(p) {
			emit(q)
		}
	})
}

// Filter keeps records satisfying fn.
func (r *RDD) Filter(name string, fn func(Pair) bool) *RDD {
	return r.eachChild(name, func(p Pair, emit func(Pair)) {
		if fn(p) {
			emit(p)
		}
	})
}

// Cache marks the RDD for materialization (Spark's cache()) and returns it.
// A cached partition is read by the later stages of the same job on every
// backend, and by later jobs only on the simulator's (see Cached).
func (r *RDD) Cache() *RDD {
	r.Cached = true
	return r
}

// TransferTo pushes each partition to a receiver task in the given
// datacenter — the paper's core primitive (Sec. IV-B). Data is pushed as
// soon as each parent partition is computed, pipelined with the preceding
// tasks; host-level placement inside the datacenter stays with the task
// scheduler via preferredLocations.
func (r *RDD) TransferTo(dc topology.DCID) *RDD {
	return r.transfer(&TransferSpec{DC: dc})
}

// TransferToAuto is TransferTo with the aggregator datacenter chosen
// automatically: the DC storing the largest share of the stage's map input
// (Sec. IV-D). This is what the DAG scheduler inserts when automatic
// aggregation is enabled.
func (r *RDD) TransferToAuto() *RDD {
	return r.transfer(&TransferSpec{Auto: true})
}

// TransferToTopK aggregates into the k datacenters holding the largest
// input shares, spreading partitions round-robin across them (the paper's
// "subset of datacenters" generalization of Sec. III-B).
func (r *RDD) TransferToTopK(k int) *RDD {
	if k < 1 {
		panic("rdd: TransferToTopK needs k >= 1")
	}
	return r.transfer(&TransferSpec{Auto: true, K: k})
}

func (r *RDD) transfer(spec *TransferSpec) *RDD {
	child := r.eachChild(r.Name+".transferTo", identity)
	child.Transfer = spec
	return child
}

// shuffleChild builds the post-shuffle RDD for a spec.
func (r *RDD) shuffleChild(name string, spec *ShuffleSpec, post postShuffleFn) *RDD {
	spec.ID = r.graph.nextShuffleID()
	return r.graph.register(&RDD{
		Name:        name,
		numParts:    spec.Partitioner.NumPartitions(),
		Deps:        []Dependency{{Kind: DepShuffle, Parent: r, Shuffle: spec}},
		PostShuffle: post,
		graph:       r.graph,
	})
}

func (g *Graph) nextShuffleID() int {
	g.shuffleSeq++
	return g.shuffleSeq
}

// ReduceByKey merges all values of each key with fn, combining on the map
// side before any data leaves the mapper.
func (r *RDD) ReduceByKey(name string, numParts int, fn CombineFn) *RDD {
	return r.shuffleChild(name, &ShuffleSpec{
		Partitioner:    NewHashPartitioner(numParts),
		MapSideCombine: true,
		Combine:        fn,
	}, nil)
}

// GroupByKey gathers all values of each key into a []Value, in arrival
// order. No map-side combining happens (Spark semantics), so the full map
// output crosses the network. The reducer sorts its shard, stably, and cuts
// each key's values from one slice per partition.
func (r *RDD) GroupByKey(name string, numParts int) *RDD {
	return r.shuffleChild(name, &ShuffleSpec{
		Partitioner: NewHashPartitioner(numParts),
		SortKeys:    true,
	}, groupValues)
}

// groupValues is GroupByKey's post-shuffle step.
func groupValues(_ int, sorted [][]Pair) []Pair {
	return groupRuns(sorted[0], valuesType, func(run []Pair, vals []Value, slot *[]Value) {
		for i, p := range run {
			vals[i] = p.Value
		}
		*slot = vals
	})
}

// SortByKey produces globally sorted output via a range partitioner whose
// boundaries the engine samples at the map-stage barrier (Spark's sampling
// step).
func (r *RDD) SortByKey(name string, numParts int) *RDD {
	return r.shuffleChild(name, &ShuffleSpec{
		Partitioner: NewRangePartitioner(numParts),
		SortKeys:    true,
	}, nil)
}

// AggregateByKey is ReduceByKey without map-side combining, for
// non-combinable aggregations.
func (r *RDD) AggregateByKey(name string, numParts int, fn CombineFn) *RDD {
	return r.shuffleChild(name, &ShuffleSpec{
		Partitioner: NewHashPartitioner(numParts),
		Combine:     fn,
	}, nil)
}

// CoGroup groups this RDD (side 0) with other (side 1) by key. Each output
// record's value is a [2][]Value of the two sides' values, each in arrival
// order; a side with no values for the key is nil. Each side is a shuffle
// of its own, read straight from its parent: a record's side is the
// dependency it arrives through.
func (r *RDD) CoGroup(name string, other *RDD, numParts int) *RDD {
	part := NewHashPartitioner(numParts)
	deps := make([]Dependency, 2)
	for side, parent := range []*RDD{r, other} {
		spec := &ShuffleSpec{Partitioner: part, SortKeys: true, CoGroupSide: true}
		spec.ID = r.graph.nextShuffleID()
		deps[side] = Dependency{Kind: DepShuffle, Parent: parent, Shuffle: spec}
	}
	return r.graph.register(&RDD{
		Name:        name,
		numParts:    numParts,
		Deps:        deps,
		PostShuffle: cogroupValues,
		graph:       r.graph,
	})
}

// cogroupValues is CoGroup's post-shuffle step: it walks the two key-sorted
// sides together, and each key's window of one values slice holds its left
// values, then its right ones.
func cogroupValues(_ int, sorted [][]Pair) []Pair {
	left, right := sorted[0], sorted[1]
	keys := 0
	mergeKeys(left, right, func(_, _ []Pair) { keys++ })
	out := make([]Pair, 0, keys)
	vals := make([]Value, len(left)+len(right))
	slots := make([][2][]Value, keys)
	at := 0
	mergeKeys(left, right, func(l, r []Pair) {
		groups := &slots[len(out)]
		for side, run := range [2][]Pair{l, r} {
			if len(run) == 0 {
				continue // a side with no values stays nil
			}
			w := vals[at : at+len(run) : at+len(run)]
			for i, p := range run {
				w[i] = p.Value
			}
			groups[side] = w
			at += len(run)
		}
		key := r
		if len(l) > 0 {
			key = l
		}
		out = append(out, Pair{Key: key[0].Key, Value: boxAs(groupsType, groups)})
	})
	return out
}

// mergeKeys calls each once per distinct key of the key-sorted left and
// right, in key order, with the key's stretch of each (empty on a side
// without it).
func mergeKeys(left, right []Pair, each func(l, r []Pair)) {
	for i, j := 0, 0; i < len(left) || j < len(right); {
		var key string
		if j == len(right) || i < len(left) && left[i].Key <= right[j].Key {
			key = left[i].Key
		} else {
			key = right[j].Key
		}
		li, rj := i, j
		for li < len(left) && left[li].Key == key {
			li++
		}
		for rj < len(right) && right[rj].Key == key {
			rj++
		}
		each(left[i:li], right[j:rj])
		i, j = li, rj
	}
}

// Join inner-joins this RDD with other by key; each matching value pair
// becomes a record with Value []Value{left, right}, emitted as it is built.
// A key's pairs cost one allocation, a joinedPair each.
func (r *RDD) Join(name string, other *RDD, numParts int) *RDD {
	cg := r.CoGroup(name+".cogroup", other, numParts)
	return cg.eachChild(name, func(p Pair, emit func(Pair)) {
		groups := p.Value.([2][]Value)
		pairs := make([]joinedPair, len(groups[0])*len(groups[1]))
		i := 0
		for _, l := range groups[0] {
			for _, rv := range groups[1] {
				jp := &pairs[i]
				jp.vals = [2]Value{l, rv}
				jp.pair = jp.vals[:]
				emit(Pair{Key: p.Key, Value: boxAs(valuesType, &jp.pair)})
				i++
			}
		}
	})
}

// joinedPair is one joined record's value: pair is vals[:], boxed over its
// slot, and its capacity of 2 makes an append to it copy.
type joinedPair struct {
	pair []Value
	vals [2]Value
}

// Validate checks structural invariants of the lineage reachable from r and
// returns a descriptive error, naming the node, for malformed graphs: a
// leaf has input partitions, a narrow RDD has exactly one dependency and its
// parent's partition count, and a shuffled RDD's dependencies are all
// shuffles into its partition count. A shuffle that combines map-side (only
// ReduceByKey's does) hash-partitions: its map outputs are in arrival order
// (MapSidePrepare), so RangeSample must draw nothing from them.
func (r *RDD) Validate() error {
	seen := map[int]bool{}
	var walk func(n *RDD) error
	walk = func(n *RDD) error {
		if seen[n.ID] {
			return nil
		}
		seen[n.ID] = true
		switch {
		case len(n.Deps) == 0:
			if len(n.Input) == 0 {
				return fmt.Errorf("rdd %q: leaf without input partitions", n.Name)
			}
			if n.numParts != len(n.Input) {
				return fmt.Errorf("rdd %q: numParts %d != input partitions %d", n.Name, n.numParts, len(n.Input))
			}
		case n.Deps[0].Kind == DepNarrow:
			if len(n.Deps) != 1 {
				return fmt.Errorf("rdd %q: narrow RDD with %d dependencies, want one", n.Name, len(n.Deps))
			}
			parent := n.Deps[0].Parent
			if parent == nil {
				return fmt.Errorf("rdd %q: nil parent", n.Name)
			}
			if parent.numParts != n.numParts {
				return fmt.Errorf("rdd %q: numParts %d != parent %q's %d", n.Name, n.numParts, parent.Name, parent.numParts)
			}
			if n.Each == nil {
				return fmt.Errorf("rdd %q: narrow RDD without an operator", n.Name)
			}
		default:
			if n.Transfer != nil {
				return fmt.Errorf("rdd %q: transfer RDD must have exactly one narrow parent", n.Name)
			}
			for _, d := range n.Deps {
				if d.Parent == nil {
					return fmt.Errorf("rdd %q: nil parent", n.Name)
				}
				if d.Kind != DepShuffle {
					return fmt.Errorf("rdd %q: shuffled RDD with a narrow dependency on %q", n.Name, d.Parent.Name)
				}
				if d.Shuffle == nil || d.Shuffle.Partitioner == nil {
					return fmt.Errorf("rdd %q: shuffle dep without spec", n.Name)
				}
				if d.Shuffle.Partitioner.NumPartitions() != n.numParts {
					return fmt.Errorf("rdd %q: partitioner shards %d != numParts %d",
						n.Name, d.Shuffle.Partitioner.NumPartitions(), n.numParts)
				}
				if d.Shuffle.CombinesMapSide() && !d.Shuffle.Partitioner.Ready() {
					return fmt.Errorf("rdd %q: a shuffle that combines map-side needs a ready partitioner, not one sampled from its unsorted map outputs", n.Name)
				}
			}
		}
		for _, d := range n.Deps {
			if err := walk(d.Parent); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(r)
}
