// Package shuffle tracks map output between stages — the equivalent of
// Spark's MapOutputTracker plus the shuffle write/read record semantics.
//
// Each shuffle holds one output per map partition: the records that left
// the mapper (after map-side combining), the host storing them, and their
// modeled size. Output is sharded lazily at the map-stage barrier, once a
// range partitioner's boundaries can be sampled; until then pushes
// (transferTo) move whole partitions, exactly as the paper's receiver tasks
// do.
//
// The tracker also answers the two placement questions of Sec. III-B: how
// a reducer's input is distributed over hosts (for preferredLocations) and
// over datacenters (for aggregator selection).
package shuffle

import (
	"fmt"
	"sort"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// MapOutput is one map partition's registered shuffle output.
type MapOutput struct {
	MapPart int
	Host    topology.HostID
	// Records left the mapper after map-side combining.
	Records []rdd.Pair
	// ModeledBytes is the partition's size at workload scale.
	ModeledBytes float64

	shards       [][]rdd.Pair
	shardModeled []float64
}

// Registry tracks every shuffle of a job.
type Registry struct {
	shuffles map[int]*state
}

type state struct {
	spec      *rdd.ShuffleSpec
	numMaps   int
	outputs   []*MapOutput
	regCount  int
	finalized bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{shuffles: make(map[int]*state)}
}

// Register declares a shuffle with its map-side partition count. Calling it
// again for the same shuffle is a no-op (stages are planned once but
// launched from multiple paths).
func (r *Registry) Register(spec *rdd.ShuffleSpec, numMaps int) {
	if _, ok := r.shuffles[spec.ID]; ok {
		return
	}
	r.shuffles[spec.ID] = &state{
		spec:    spec,
		numMaps: numMaps,
		outputs: make([]*MapOutput, numMaps),
	}
}

func (r *Registry) mustState(shuffleID int) *state {
	st, ok := r.shuffles[shuffleID]
	if !ok {
		panic(fmt.Sprintf("shuffle: unknown shuffle %d", shuffleID))
	}
	return st
}

// AddMapOutput registers (or re-registers, after a push moved it) the
// output of one map partition.
func (r *Registry) AddMapOutput(shuffleID, mapPart int, host topology.HostID, records []rdd.Pair, modeledBytes float64) {
	st := r.mustState(shuffleID)
	if mapPart < 0 || mapPart >= st.numMaps {
		panic(fmt.Sprintf("shuffle %d: map partition %d out of range [0,%d)", shuffleID, mapPart, st.numMaps))
	}
	if st.outputs[mapPart] == nil {
		st.regCount++
	}
	st.outputs[mapPart] = &MapOutput{
		MapPart: mapPart, Host: host, Records: records, ModeledBytes: modeledBytes,
	}
	if st.finalized {
		// Post-failure recomputation: rebuild this output's shards with
		// the already-prepared partitioner.
		r.Refresh(shuffleID, mapPart)
	}
}

// OutputsOn lists the (shuffleID, mapPart) outputs stored on a host, in
// deterministic order — the state lost when that host fails.
func (r *Registry) OutputsOn(host topology.HostID) [][2]int {
	var out [][2]int
	for id, st := range r.shuffles {
		for _, mo := range st.outputs {
			if mo != nil && mo.Host == host {
				out = append(out, [2]int{id, mo.MapPart})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Invalidate drops a map output whose storage host was lost (Spark's
// FetchFailed → missing map output). The partition must be recomputed and
// re-registered before the shuffle can be read again.
func (r *Registry) Invalidate(shuffleID, mapPart int) {
	st := r.mustState(shuffleID)
	if st.outputs[mapPart] == nil {
		return
	}
	st.outputs[mapPart] = nil
	st.regCount--
}

// Refresh shards one map output with the prepared partitioner: Finalize
// runs it over every output, and AddMapOutput re-runs it for an output
// re-registered after the shuffle was finalized (post-failure recovery),
// rebuilding only that output's buckets. A no-op before Finalize.
func (r *Registry) Refresh(shuffleID, mapPart int) {
	st := r.mustState(shuffleID)
	if !st.finalized {
		return
	}
	out := st.outputs[mapPart]
	if out == nil {
		panic(fmt.Sprintf("shuffle %d: refresh of unregistered map output %d", shuffleID, mapPart))
	}
	out.shards = rdd.BucketRecords(st.spec, out.Records)
	out.shardModeled = make([]float64, len(out.shards))
	realTotal := 0.0 // the shards' sum: sizes are integral, so it is exact
	for i, shard := range out.shards {
		out.shardModeled[i] = rdd.ShuffledSize(st.spec, shard)
		realTotal += out.shardModeled[i]
	}
	if realTotal > 0 { // otherwise every shard is empty and priced 0
		for i, size := range out.shardModeled {
			out.shardModeled[i] = size / realTotal * out.ModeledBytes
		}
	}
}

// Missing lists map partitions without registered output (after
// invalidation).
func (r *Registry) Missing(shuffleID int) []int {
	st := r.mustState(shuffleID)
	var out []int
	for i, mo := range st.outputs {
		if mo == nil {
			out = append(out, i)
		}
	}
	return out
}

// Complete reports whether every map partition has registered output.
func (r *Registry) Complete(shuffleID int) bool {
	st := r.mustState(shuffleID)
	return st.regCount == st.numMaps
}

// Finalize shards all map output. For range-partitioned shuffles it first
// samples keys across the outputs and prepares the partitioner (Spark's
// sortByKey sampling step, which the paper's Fig. 3 shows happening before
// reducers fetch their shards). Must be called at the map-stage barrier;
// idempotent.
func (r *Registry) Finalize(shuffleID int) {
	st := r.mustState(shuffleID)
	if st.finalized {
		return
	}
	if !r.Complete(shuffleID) {
		panic(fmt.Sprintf("shuffle %d: finalize before all %d map outputs registered", shuffleID, st.numMaps))
	}
	// The sampler reads resident records and cannot fail.
	_ = rdd.PrepareRange(st.spec, st.numMaps, func(mapPart, max int) ([]string, error) {
		return rdd.SampleKeys(st.outputs[mapPart].Records, max), nil
	})
	st.finalized = true
	for mapPart := range st.outputs {
		r.Refresh(shuffleID, mapPart)
	}
}

// Shard is a reducer's view of one map output: where it is stored and how
// big its slice is.
type Shard struct {
	MapPart      int
	Host         topology.HostID
	ModeledBytes float64
	Records      []rdd.Pair
}

// Shards returns the reducer's input: one shard per map partition, in map
// order. Finalize must have run.
func (r *Registry) Shards(shuffleID, reducePart int) []Shard {
	st := r.mustState(shuffleID)
	if !st.finalized {
		panic(fmt.Sprintf("shuffle %d: Shards before Finalize", shuffleID))
	}
	out := make([]Shard, 0, st.numMaps)
	for i, mo := range st.outputs {
		if mo == nil {
			panic(fmt.Sprintf("shuffle %d: map output %d missing (invalidated); recover before reading", shuffleID, i))
		}
		out = append(out, Shard{
			MapPart:      mo.MapPart,
			Host:         mo.Host,
			ModeledBytes: mo.shardModeled[reducePart],
			Records:      mo.shards[reducePart],
		})
	}
	return out
}

// ReducerHostBytes returns, per host, the modeled bytes of the reducer's
// input stored there. Used to derive reduce-task preferredLocations, as
// Spark's getLocationsWithLargestOutputs does.
func (r *Registry) ReducerHostBytes(shuffleID, reducePart int) map[topology.HostID]float64 {
	st := r.mustState(shuffleID)
	if !st.finalized {
		panic(fmt.Sprintf("shuffle %d: ReducerHostBytes before Finalize", shuffleID))
	}
	out := make(map[topology.HostID]float64)
	for _, mo := range st.outputs {
		if mo == nil {
			// Invalidated after a host failure; pending recomputation.
			continue
		}
		if b := mo.shardModeled[reducePart]; b > 0 {
			out[mo.Host] += b
		}
	}
	return out
}

// HostBytes returns, per host, the modeled bytes of all registered map
// output of the shuffle (available before Finalize). Feeds aggregator
// selection and Eq. (1)/(2) style analyses.
func (r *Registry) HostBytes(shuffleID int) map[topology.HostID]float64 {
	st := r.mustState(shuffleID)
	out := make(map[topology.HostID]float64)
	for _, mo := range st.outputs {
		if mo != nil {
			out[mo.Host] += mo.ModeledBytes
		}
	}
	return out
}
