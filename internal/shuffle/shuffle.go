// Package shuffle tracks map output between stages: Tracker is the one
// record of where each map output lives (Spark's map-output tracker), which
// both backends use, and Registry is the simulator's shuffle write/read
// record semantics on top of it.
//
// The Registry holds each map output's records (after map-side combining)
// beside the Tracker's entry for it: holder host, modeled size, range
// sample. Output is sharded lazily at the map-stage barrier, once a range
// partitioner's boundaries can be prepared; until then pushes (transferTo)
// move whole partitions, exactly as the paper's receiver tasks do.
//
// It also answers the placement question of Sec. III-B: how a reducer's
// input is distributed over hosts (for preferredLocations).
package shuffle

import (
	"fmt"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// Registry is the simulator's shuffle state for every shuffle of an
// engine: the Tracker, with hosts as its sites, and per map output the
// records and their modeled shards.
type Registry struct {
	Tracker
	shuffles map[int]*state
}

type state struct {
	spec      *rdd.ShuffleSpec
	outputs   []written
	finalized bool
}

// written is the records of one map output and, once the shuffle is
// finalized, their shards with each one's real size (rdd.ShuffledSize) and
// the sizes' sum. Whether the output is present, and where, is the
// Tracker's, and so is its modeled size, which modeled shares out.
type written struct {
	records   []rdd.Pair
	shards    [][]rdd.Pair
	shardReal []float64
	realTotal float64 // sizes are integral, so the sum is exact
}

// modeled is shard reduce's share of the output's modeled bytes, in
// proportion to its real size: 0 when every shard sizes 0 (the sum is then
// 0, and every other sum at least 1).
func (w *written) modeled(reduce int, bytes float64) float64 {
	return w.shardReal[reduce] / max(w.realTotal, 1) * bytes
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
	r.Declare(spec.ID, numMaps)
	r.shuffles[spec.ID] = &state{spec: spec, outputs: make([]written, numMaps)}
}

func (r *Registry) mustState(shuffleID int) *state {
	st, ok := r.shuffles[shuffleID]
	if !ok {
		panic(fmt.Sprintf("shuffle: unknown shuffle %d", shuffleID))
	}
	return st
}

// AddMapOutput registers (or re-registers, after a push moved it or its
// host was lost) the output of one map partition, recording its
// rdd.RangeSample with it.
func (r *Registry) AddMapOutput(shuffleID, mapPart int, host topology.HostID, records []rdd.Pair, modeledBytes float64) {
	st := r.mustState(shuffleID)
	r.Record(shuffleID, mapPart, int(host), modeledBytes, rdd.RangeSample(st.spec, records))
	st.outputs[mapPart] = written{records: records}
	if st.finalized {
		// Post-failure recomputation: rebuild this output's shards with
		// the already-prepared partitioner.
		r.refresh(shuffleID, mapPart)
	}
}

// refresh shards one map output with the prepared partitioner: Finalize
// runs it over every output, and AddMapOutput re-runs it for an output
// re-registered after the shuffle was finalized (post-failure recovery),
// rebuilding only that output's buckets. A no-op before Finalize.
func (r *Registry) refresh(shuffleID, mapPart int) {
	st := r.mustState(shuffleID)
	if !st.finalized {
		return
	}
	r.mu.Lock()
	o := r.outs[shuffleID][mapPart]
	r.mu.Unlock()
	if !o.ok {
		panic(fmt.Sprintf("shuffle %d: refresh of unregistered map output %d", shuffleID, mapPart))
	}
	out := &st.outputs[mapPart]
	out.shards = rdd.BucketRecords(st.spec, out.records)
	out.shardReal, out.realTotal = make([]float64, len(out.shards)), 0
	for i, shard := range out.shards {
		out.shardReal[i] = rdd.ShuffledSize(st.spec, shard)
		out.realTotal += out.shardReal[i]
	}
}

// Finalize shards all map output. For range-partitioned shuffles it first
// prepares the partitioner from the samples recorded with the outputs
// (Spark's sortByKey sampling step, which the paper's Fig. 3 shows
// happening before reducers fetch their shards). Must be called at the
// map-stage barrier; idempotent.
func (r *Registry) Finalize(shuffleID int) {
	st := r.mustState(shuffleID)
	if st.finalized {
		return
	}
	if err := r.PrepareRange(st.spec); err != nil {
		panic(fmt.Sprintf("shuffle %d: finalize before every map output is registered: %v", shuffleID, err))
	}
	st.finalized = true
	for mapPart := range st.outputs {
		r.refresh(shuffleID, mapPart)
	}
}

// shard is a reducer's view of one map output: where it is stored and how
// big its slice is, modeled and real (rdd.ShuffledSize, sized once, when
// the output was sharded).
type shard struct {
	MapPart      int
	Host         topology.HostID
	ModeledBytes float64
	RealBytes    float64
	Records      []rdd.Pair
}

// Shards returns the reducer's input: one shard per map partition, in map
// order. Finalize must have run.
func (r *Registry) Shards(shuffleID, reducePart int) []shard {
	st := r.mustState(shuffleID)
	if !st.finalized {
		panic(fmt.Sprintf("shuffle %d: Shards before Finalize", shuffleID))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]shard, 0, len(st.outputs))
	for m, o := range r.outs[shuffleID] {
		if !o.ok {
			panic(fmt.Sprintf("shuffle %d: map output %d missing (host lost); recover before reading", shuffleID, m))
		}
		w := &st.outputs[m]
		out = append(out, shard{
			MapPart:      m,
			Host:         topology.HostID(o.site),
			ModeledBytes: w.modeled(reducePart, o.bytes),
			RealBytes:    w.shardReal[reducePart],
			Records:      w.shards[reducePart],
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
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[topology.HostID]float64)
	for m, o := range r.outs[shuffleID] {
		if !o.ok {
			// Lost with its host; pending recomputation.
			continue
		}
		if b := st.outputs[m].modeled(reducePart, o.bytes); b > 0 {
			out[topology.HostID(o.site)] += b
		}
	}
	return out
}
