package exec

import (
	"fmt"
	"slices"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// partData is a materialized partition: real records, their real size
// (rdd.SizeOfAll of the records, summed once where the records are made) and
// their modeled size at workload scale.
type partData struct {
	records []rdd.Pair
	real    float64
	modeled float64
}

// scaleTo returns the modeled size of output records derived from inputs
// with the given real/modeled sizes, preserving the modeled:real ratio.
func scaleTo(outReal, inReal, inModeled float64) float64 {
	if inReal <= 0 {
		return outReal
	}
	return outReal * (inModeled / inReal)
}

// need is the one input acquisition a task must perform before computing.
type need struct {
	kind    needKind
	host    topology.HostID // where the data lives (source/cached)
	modeled float64
	// shuffle needs
	node *rdd.RDD // the ShuffledRDD base
}

type needKind int

const (
	needNothing needKind = iota // the chain reaches bound data first
	needSource
	needCached
	needShuffleRead
)

// walkNeed returns what computing partition part of node must acquire: down
// its chain, the first materialized cache, source or shuffle boundary, or
// nothing when a bound entry comes first.
func (e *Engine) walkNeed(node *rdd.RDD, part int, bound map[int]partData) need {
	for {
		if _, ok := bound[node.ID]; ok {
			return need{}
		}
		if cp := e.cachedPart(node, part); cp != nil {
			return need{kind: needCached, host: cp.host, modeled: cp.modeled}
		}
		if len(node.Deps) == 0 {
			in := node.Input[part]
			return need{kind: needSource, host: in.Host, modeled: in.ModeledBytes}
		}
		if node.Deps[0].Kind == rdd.DepShuffle {
			return need{kind: needShuffleRead, node: node}
		}
		node = node.Deps[0].Parent
	}
}

func (e *Engine) cachedPart(node *rdd.RDD, part int) *cachedPart {
	if !node.Cached {
		return nil
	}
	parts, ok := e.cache[node.ID]
	if !ok {
		return nil
	}
	return parts[part]
}

func (e *Engine) storeCache(node *rdd.RDD, part int, host topology.HostID, data partData) {
	if !node.Cached {
		return
	}
	parts, ok := e.cache[node.ID]
	if !ok {
		parts = make([]*cachedPart, node.NumParts())
		e.cache[node.ID] = parts
	}
	if parts[part] == nil {
		parts[part] = &cachedPart{host: host, partData: data}
	}
}

// evaluate computes partition part of node on host, reading boundary data
// from bound, charging modeled compute bytes to cost. Shuffle boundaries
// must already be present in bound (the acquire step aggregates them).
//
// Every operator is priced on its own input and output sizes, but a chain of
// per-record operators is not materialised operator by operator: the records
// of the chain's base stream through the composed operators into one output
// slice sized from the base, and meter sums each operator's output size as
// they pass.
func (e *Engine) evaluate(node *rdd.RDD, part int, host topology.HostID, bound map[int]partData, cost *float64) partData {
	ops, base := e.chain(node, part, host, bound, cost)
	return stream(ops, base, cost)
}

// chain walks down from node through the narrow operators that run record
// by record on their one parent partition (rdd.RDD.Each: neither bound nor
// Cached) and materialises the first node that is not one. It returns the
// walked operators bottom-up, and the materialised base they read.
func (e *Engine) chain(node *rdd.RDD, part int, host topology.HostID, bound map[int]partData, cost *float64) ([]*rdd.RDD, partData) {
	var ops []*rdd.RDD
	for node.Each != nil && !node.Cached {
		if _, ok := bound[node.ID]; ok {
			break
		}
		ops = append(ops, node)
		node = node.Deps[0].Parent
	}
	slices.Reverse(ops)
	return ops, e.materialise(node, part, host, bound, cost)
}

// stream runs base's records through ops, bottom-up, into one output slice
// sized from the base (meter prices each operator).
func stream(ops []*rdd.RDD, base partData, cost *float64) partData {
	if len(ops) == 0 {
		return base
	}
	recs := make([]rdd.Pair, 0, len(base.records))
	out := meter(ops, base, cost, func(p rdd.Pair) { recs = append(recs, p) })
	out.records = recs
	return out
}

// meter streams base's records through ops, bottom-up, into emit, and sizes
// and charges each operator as materialising it would (the returned partData
// has the last operator's sizes and no records): its real output size
// is the sum of rdd.SizeOf over its output records in order (the sum
// rdd.SizeOfAll would make of its output slice), its modeled output is
// scaled from its input, and its modeled input is charged to cost, bottom-up.
// A transfer node passes records through as they are, so its output size is
// its input's, and it costs network time, not CPU.
func meter(ops []*rdd.RDD, base partData, cost *float64, emit func(rdd.Pair)) partData {
	sums := make([]float64, len(ops)) // each operator's real output bytes so far
	for k := len(ops) - 1; k >= 0; k-- {
		if ops[k].Transfer != nil {
			continue
		}
		each, next := ops[k].Each, emit
		metered := func(p rdd.Pair) {
			sums[k] += rdd.SizeOf(p)
			next(p)
		}
		emit = func(p rdd.Pair) { each(p, metered) }
	}
	for _, p := range base.records {
		emit(p)
	}
	out := partData{real: base.real, modeled: base.modeled}
	for k, op := range ops {
		outReal := out.real
		if op.Transfer == nil {
			outReal = sums[k]
			*cost += out.modeled
		}
		out = partData{real: outReal, modeled: scaleTo(outReal, out.real, out.modeled)}
	}
	return out
}

// materialise computes a node that does not run record by record: boundary
// data, a cached partition, a leaf, or a Cached narrow node computed whole
// from its one parent partition, so that it can be kept.
func (e *Engine) materialise(node *rdd.RDD, part int, host topology.HostID, bound map[int]partData, cost *float64) partData {
	if d, ok := bound[node.ID]; ok {
		// Boundary data (e.g. a pushed partition at a receiver) can still
		// be cache-marked: "cache after all data is aggregated in a
		// single datacenter" (Sec. IV-E).
		e.storeCache(node, part, host, d)
		return d
	}
	if cp := e.cachedPart(node, part); cp != nil {
		return cp.partData
	}
	if len(node.Deps) == 0 {
		in := node.Input[part]
		return partData{records: in.Records, real: rdd.SizeOfAll(in.Records), modeled: in.ModeledBytes}
	}
	if node.Deps[0].Kind == rdd.DepShuffle {
		panic(fmt.Sprintf("exec: shuffle boundary %q not acquired before evaluation", node.Name))
	}
	out := stream([]*rdd.RDD{node}, e.evaluate(node.Deps[0].Parent, part, host, bound, cost), cost)
	e.storeCache(node, part, host, out)
	return out
}

// aggregateShuffle materializes a ShuffledRDD partition from its fetched
// shards and charges the reduce-side aggregation cost. The registry's shards
// go to rdd.ReducePartition as each dep's runs, in map order, copied nowhere
// else.
func (e *Engine) aggregateShuffle(node *rdd.RDD, part int, host topology.HostID, cost *float64) partData {
	var buf [2][][]rdd.Pair // a cogroup's two deps hold without a heap slice
	runs := buf[:0]
	var inReal, modeled float64
	for di := range node.Deps {
		d := &node.Deps[di]
		shards := e.reg.Shards(d.Shuffle.ID, part)
		dep := make([][]rdd.Pair, len(shards))
		for i, sh := range shards {
			dep[i] = sh.Records
			inReal += sh.RealBytes // integral, so the sum is exact
			modeled += sh.ModeledBytes
		}
		runs = append(runs, dep)
	}
	agg := rdd.ReducePartition(node, part, runs)
	outReal := rdd.SizeOfAll(agg)
	out := partData{
		records: agg,
		real:    outReal,
		modeled: scaleTo(outReal, inReal, modeled),
	}
	*cost += modeled
	e.storeCache(node, part, host, out)
	return out
}

// chargeSide prices out, the map output of one side of a cogroup, as the
// cost model prices a side: one pass over its modeled bytes, as for a
// per-record operator, and each record one byte larger (rdd.ShuffledSize),
// its modeled size scaled up to match.
func chargeSide(out partData, cost *float64) partData {
	*cost += out.modeled
	real := out.real + float64(len(out.records))
	return partData{records: out.records, real: real, modeled: scaleTo(real, out.real, out.modeled)}
}
