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

// DepKind distinguishes dependency types. Narrow dependencies pipeline
// within a stage; shuffle dependencies cut stage boundaries.
type DepKind int

// Dependency kinds.
const (
	DepNarrow DepKind = iota + 1
	DepShuffle
)

// Dependency links an RDD to one parent.
type Dependency struct {
	Kind   DepKind
	Parent *RDD

	// Mapping gives, for an output partition, the parent partitions it
	// reads (narrow deps only). Nil means identity 1:1.
	Mapping func(outPart int) []int

	// Shuffle holds the shuffle contract (shuffle deps only).
	Shuffle *ShuffleSpec
}

// ParentParts resolves the parent partitions feeding output partition i of
// a narrow dependency.
func (d *Dependency) ParentParts(i int) []int {
	if d.Mapping == nil {
		return []int{i}
	}
	return d.Mapping(i)
}

// CombineFn merges two values of the same key (must be commutative and
// associative, as in Spark's reduceByKey contract).
type CombineFn func(a, b Value) Value

// ShuffleSpec is the contract of one shuffle: how map output is sharded and
// how each reducer aggregates its shard.
type ShuffleSpec struct {
	// ID is unique per graph, assigned on creation.
	ID int
	// Partitioner shards keys into reduce partitions.
	Partitioner Partitioner
	// MapSideCombine runs Combine on the mapper before data leaves it
	// (Sec. IV-C3: pipelined before the push when possible).
	MapSideCombine bool
	// Combine merges values per key. Nil with GroupAll=false means values
	// pass through ungrouped (sort-style shuffles).
	Combine CombineFn
	// GroupAll gathers all values of a key into a []Value (groupByKey).
	GroupAll bool
	// SortKeys sorts each reduce partition by key after aggregation.
	SortKeys bool
	// SampleForRange marks a range-partitioned shuffle whose boundaries
	// the engine must sample at the map-stage barrier.
	SampleForRange bool
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

// NarrowFn computes one output partition from its parent partitions'
// records, concatenated in dependency order.
type NarrowFn func(part int, input []Pair) []Pair

// EachFn is the push-style form of a per-record operator: it calls emit,
// in order, with every record p turns into (none, for a filtered record).
// An evaluator composes a chain of them into one loop with no slice between
// the operators.
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

	// Narrow computes an output partition from parent records (narrow
	// RDDs only).
	Narrow NarrowFn

	// Each is set on the narrow RDDs that work record by record (Map,
	// FlatMap, Filter, Union); their Narrow is then the same operator
	// materialised. Nil means the RDD needs its whole input partition at
	// once (MapPartitions) and Narrow is the only form it has.
	Each EachFn

	// PostShuffle optionally transforms a reduce partition after shuffle
	// aggregation (e.g. the flatMap step of a join). Nil means identity.
	PostShuffle NarrowFn

	// Transfer marks a TransferredRDD.
	Transfer *TransferSpec

	// Cached requests materialization after first computation; later jobs
	// and stages read the cached copy instead of recomputing (Spark's
	// cache()).
	Cached bool

	// CostFactor scales the modeled CPU cost of computing this RDD
	// (default 1.0 when zero).
	CostFactor float64

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

func (r *RDD) narrowChild(name string, fn NarrowFn) *RDD {
	return r.graph.register(&RDD{
		Name:     name,
		numParts: r.numParts,
		Deps:     []Dependency{{Kind: DepNarrow, Parent: r}},
		Narrow:   fn,
		graph:    r.graph,
	})
}

// eachChild builds the narrow RDD of a per-record operator. Its Narrow is
// derived from each, so the two forms cannot disagree: an evaluator that
// wants every operator's output on its own (exec's cost model, EvalLocal)
// calls Narrow, one that only wants the end of the chain composes Each.
func (r *RDD) eachChild(name string, each EachFn) *RDD {
	child := r.narrowChild(name, func(_ int, in []Pair) []Pair {
		out := make([]Pair, 0, len(in))
		emit := func(p Pair) { out = append(out, p) }
		for _, p := range in {
			each(p, emit)
		}
		return out
	})
	child.Each = each
	return child
}

// Map applies fn to every record.
func (r *RDD) Map(name string, fn func(Pair) Pair) *RDD {
	return r.eachChild(name, func(p Pair, emit func(Pair)) { emit(fn(p)) })
}

// FlatMap applies fn to every record and concatenates the results.
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

// MapPartitions applies fn to each whole partition. It has no per-record
// form: an evaluator materialises its input, whatever surrounds it.
func (r *RDD) MapPartitions(name string, fn func(part int, in []Pair) []Pair) *RDD {
	return r.narrowChild(name, fn)
}

// WithCostFactor scales the modeled CPU cost of this RDD's computation and
// returns the RDD for chaining.
func (r *RDD) WithCostFactor(f float64) *RDD {
	if f <= 0 {
		panic("rdd: cost factor must be positive")
	}
	r.CostFactor = f
	return r
}

// Cache marks the RDD for materialization (Spark's cache()) and returns it.
func (r *RDD) Cache() *RDD {
	r.Cached = true
	return r
}

// Union concatenates this RDD's partitions with others'.
func (r *RDD) Union(name string, others ...*RDD) *RDD {
	parents := append([]*RDD{r}, others...)
	total := 0
	deps := make([]Dependency, len(parents))
	for i, p := range parents {
		base := total
		n := p.numParts
		deps[i] = Dependency{
			Kind:   DepNarrow,
			Parent: p,
			Mapping: func(out int) []int {
				if out >= base && out < base+n {
					return []int{out - base}
				}
				return nil
			},
		}
		total += n
	}
	return r.graph.register(&RDD{
		Name:     name,
		numParts: total,
		Deps:     deps,
		// The identity in both forms: materialised, the concatenated parent
		// partitions are the output; record by record, a Union passes its
		// parents' records straight through to whatever reads it.
		Narrow: func(_ int, in []Pair) []Pair { return in },
		Each:   func(p Pair, emit func(Pair)) { emit(p) },
		graph:  r.graph,
	})
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
	child := r.narrowChild(r.Name+".transferTo", func(_ int, in []Pair) []Pair { return in })
	child.Transfer = spec
	return child
}

// shuffleChild builds the post-shuffle RDD for a spec.
func (r *RDD) shuffleChild(name string, spec *ShuffleSpec, post NarrowFn) *RDD {
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

// GroupByKey gathers all values of each key into a []Value. No map-side
// combining happens (Spark semantics), so the full map output crosses the
// network.
func (r *RDD) GroupByKey(name string, numParts int) *RDD {
	return r.shuffleChild(name, &ShuffleSpec{
		Partitioner: NewHashPartitioner(numParts),
		GroupAll:    true,
	}, nil)
}

// SortByKey produces globally sorted output via a range partitioner whose
// boundaries the engine samples at the map-stage barrier (Spark's sampling
// step).
func (r *RDD) SortByKey(name string, numParts int) *RDD {
	return r.shuffleChild(name, &ShuffleSpec{
		Partitioner:    NewRangePartitioner(numParts),
		SortKeys:       true,
		SampleForRange: true,
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

// Tagged wraps cogroup inputs with their side. It is one of the value
// types the record codec (codec.go) carries, so cogroup map output crosses
// the live cluster's wire like any other record.
type Tagged struct {
	Side int
	V    Value
}

// SizeBytes implements Sized.
func (t Tagged) SizeBytes() float64 { return valueSize(t.V) + 1 }

// CoGroup groups this RDD (side 0) with other (side 1) by key. Each output
// record's value is a [2][]Value of the two sides' values.
func (r *RDD) CoGroup(name string, other *RDD, numParts int) *RDD {
	part := NewHashPartitioner(numParts)
	tag := func(side int) func(Pair) Pair {
		return func(p Pair) Pair { return Pair{Key: p.Key, Value: Tagged{Side: side, V: p.Value}} }
	}
	left := r.Map(name+".tagL", tag(0))
	right := other.Map(name+".tagR", tag(1))
	spec := &ShuffleSpec{Partitioner: part, GroupAll: true}
	spec.ID = r.graph.nextShuffleID()
	spec2 := &ShuffleSpec{Partitioner: part, GroupAll: true}
	spec2.ID = r.graph.nextShuffleID()
	post := func(_ int, in []Pair) []Pair {
		out := make([]Pair, 0, len(in))
		for _, p := range in {
			groups := [2][]Value{}
			for _, v := range p.Value.([]Value) {
				tv := v.(Tagged)
				groups[tv.Side] = append(groups[tv.Side], tv.V)
			}
			out = append(out, Pair{Key: p.Key, Value: groups})
		}
		return out
	}
	return r.graph.register(&RDD{
		Name:     name,
		numParts: numParts,
		Deps: []Dependency{
			{Kind: DepShuffle, Parent: left, Shuffle: spec},
			{Kind: DepShuffle, Parent: right, Shuffle: spec2},
		},
		PostShuffle: post,
		graph:       r.graph,
	})
}

// Join inner-joins this RDD with other by key; each matching value pair
// becomes a record with Value []Value{left, right}.
func (r *RDD) Join(name string, other *RDD, numParts int) *RDD {
	cg := r.CoGroup(name+".cogroup", other, numParts)
	return cg.FlatMap(name, func(p Pair) []Pair {
		groups := p.Value.([2][]Value)
		var out []Pair
		for _, l := range groups[0] {
			for _, rv := range groups[1] {
				out = append(out, Pair{Key: p.Key, Value: []Value{l, rv}})
			}
		}
		return out
	})
}

// Distinct removes duplicate (key, value-as-string) records via a shuffle.
func (r *RDD) Distinct(name string, numParts int) *RDD {
	keyed := r.Map(name+".keyed", func(p Pair) Pair {
		return Pair{Key: p.Key + "\x00" + fmt.Sprint(p.Value), Value: p}
	})
	reduced := keyed.ReduceByKey(name+".dedup", numParts, func(a, _ Value) Value { return a })
	return reduced.Map(name, func(p Pair) Pair { return p.Value.(Pair) })
}

// Validate checks structural invariants of the lineage reachable from r and
// returns a descriptive error for malformed graphs.
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
		default:
			hasShuffle := false
			for _, d := range n.Deps {
				if d.Parent == nil {
					return fmt.Errorf("rdd %q: nil parent", n.Name)
				}
				if d.Kind == DepShuffle {
					hasShuffle = true
					if d.Shuffle == nil || d.Shuffle.Partitioner == nil {
						return fmt.Errorf("rdd %q: shuffle dep without spec", n.Name)
					}
					if d.Shuffle.Partitioner.NumPartitions() != n.numParts {
						return fmt.Errorf("rdd %q: partitioner shards %d != numParts %d",
							n.Name, d.Shuffle.Partitioner.NumPartitions(), n.numParts)
					}
				}
			}
			if !hasShuffle && n.Narrow == nil {
				return fmt.Errorf("rdd %q: narrow RDD without compute fn", n.Name)
			}
			if n.Transfer != nil && (len(n.Deps) != 1 || n.Deps[0].Kind != DepNarrow) {
				return fmt.Errorf("rdd %q: transfer RDD must have exactly one narrow parent", n.Name)
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
