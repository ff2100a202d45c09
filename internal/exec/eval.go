package exec

import (
	"fmt"
	"slices"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// partData is a materialized partition: real records plus their modeled
// size at workload scale.
type partData struct {
	records []rdd.Pair
	modeled float64
}

func (p partData) realBytes() float64 { return rdd.SizeOfAll(p.records) }

// scaleTo returns the modeled size of output records derived from inputs
// with the given real/modeled sizes, preserving the modeled:real ratio.
func scaleTo(outReal, inReal, inModeled float64) float64 {
	if inReal <= 0 {
		return outReal
	}
	return outReal * (inModeled / inReal)
}

// need is one input acquisition a task must perform before computing.
type need struct {
	kind    needKind
	host    topology.HostID // where the data lives (source/cached)
	modeled float64
	// shuffle needs
	node *rdd.RDD // the ShuffledRDD boundary
}

type needKind int

const (
	needSource needKind = iota + 1
	needCached
	needShuffleRead
)

// walkNeeds collects the acquisitions required to compute partition part of
// node, stopping at bound entries, materialized caches, sources, and
// shuffle boundaries.
func (e *Engine) walkNeeds(node *rdd.RDD, part int, bound map[int]partData, out *[]need) {
	if _, ok := bound[node.ID]; ok {
		return
	}
	if cp := e.cachedPart(node, part); cp != nil {
		*out = append(*out, need{kind: needCached, host: cp.host, modeled: cp.modeled})
		return
	}
	if len(node.Deps) == 0 {
		in := node.Input[part]
		*out = append(*out, need{kind: needSource, host: in.Host, modeled: in.ModeledBytes})
		return
	}
	if node.Deps[0].Kind == rdd.DepShuffle {
		*out = append(*out, need{kind: needShuffleRead, node: node})
		return
	}
	for di := range node.Deps {
		d := &node.Deps[di]
		for _, pi := range d.ParentParts(part) {
			e.walkNeeds(d.Parent, pi, bound, out)
		}
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
		parts[part] = &cachedPart{host: host, records: data.records, modeled: data.modeled}
	}
}

// evaluate computes partition part of node on host, reading boundary data
// from bound, charging modeled compute bytes to cost. Shuffle boundaries
// must already be present in bound (the acquire step aggregates them).
func (e *Engine) evaluate(node *rdd.RDD, part int, host topology.HostID, bound map[int]partData, cost *float64) partData {
	if d, ok := bound[node.ID]; ok {
		// Boundary data (e.g. a pushed partition at a receiver) can still
		// be cache-marked: "cache after all data is aggregated in a
		// single datacenter" (Sec. IV-E).
		e.storeCache(node, part, host, d)
		return d
	}
	if cp := e.cachedPart(node, part); cp != nil {
		return partData{records: cp.records, modeled: cp.modeled}
	}
	if len(node.Deps) == 0 {
		in := node.Input[part]
		return partData{records: in.Records, modeled: in.ModeledBytes}
	}
	if node.Deps[0].Kind == rdd.DepShuffle {
		panic(fmt.Sprintf("exec: shuffle boundary %q not acquired before evaluation", node.Name))
	}
	var in []rdd.Pair
	var inModeled float64
	for di := range node.Deps {
		d := &node.Deps[di]
		for _, pi := range d.ParentParts(part) {
			pd := e.evaluate(d.Parent, pi, host, bound, cost)
			in = append(in, pd.records...)
			inModeled += pd.modeled
		}
	}
	outRecs := node.Narrow(part, in)
	inReal := rdd.SizeOfAll(in)
	out := partData{
		records: outRecs,
		modeled: scaleTo(rdd.SizeOfAll(outRecs), inReal, inModeled),
	}
	if node.Transfer == nil {
		// Transfer nodes are identity pass-throughs; they cost network
		// time, not CPU.
		factor := node.CostFactor
		if factor == 0 {
			factor = 1
		}
		*cost += inModeled * factor
	}
	e.storeCache(node, part, host, out)
	return out
}

// aggregateShuffle materializes a ShuffledRDD partition from its fetched
// shards and charges the reduce-side aggregation cost.
func (e *Engine) aggregateShuffle(node *rdd.RDD, part int, host topology.HostID, cost *float64) partData {
	var shards [][]rdd.Pair
	var modeled float64
	for di := range node.Deps {
		d := &node.Deps[di]
		for _, sh := range e.reg.Shards(d.Shuffle.ID, part) {
			shards = append(shards, sh.Records)
			modeled += sh.ModeledBytes
		}
	}
	recs := slices.Concat(shards...) // the gather, allocated once at its final size
	inReal := rdd.SizeOfAll(recs)
	agg := rdd.ReduceAggregate(node.Deps[0].Shuffle, recs)
	if node.PostShuffle != nil {
		agg = node.PostShuffle(part, agg)
	}
	out := partData{
		records: agg,
		modeled: scaleTo(rdd.SizeOfAll(agg), inReal, modeled),
	}
	factor := node.CostFactor
	if factor == 0 {
		factor = 1
	}
	*cost += modeled * factor
	e.storeCache(node, part, host, out)
	return out
}
