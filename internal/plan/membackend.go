package plan

import (
	"fmt"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// MemBackend is the in-memory reference Backend: tasks run inline, shuffle
// bytes "move" by recording which site holds each map output. It exists to
// test the Driver's planning, placement, and aggregation decisions without
// a network, and as the template for real backends.
type MemBackend struct {
	Sites int

	// Events collects the driver's run events (task lifecycle + stage
	// spans).
	Events *obs.Collector

	// MapOutputTracker records which site holds each map output and how
	// big it measured; the records themselves live in store — the same
	// storage code path the live cluster's workers use, so bucketing caches
	// and attempt idempotency are not reimplemented here.
	MapOutputTracker

	// store holds the prepared map outputs; it locks internally.
	store blockstore.Store
}

// NewMemBackend creates a backend with the given number of sites, storing
// shuffle blocks fully resident.
func NewMemBackend(sites int) *MemBackend {
	return &MemBackend{Sites: sites, Events: obs.NewCollector(), store: blockstore.NewMemStore(nil)}
}

// Store returns the backend's block store.
func (b *MemBackend) Store() blockstore.Store { return b.store }

// NumSites implements Backend.
func (b *MemBackend) NumSites() int { return b.Sites }

// SiteOfHost implements Backend: hosts wrap onto sites round-robin.
func (b *MemBackend) SiteOfHost(h topology.HostID) int { return int(h) % b.Sites }

// InputSizes implements Backend: leaf partition bytes at their home sites
// plus measured map-output bytes at their holder sites.
func (b *MemBackend) InputSizes(st *dag.Stage) []float64 {
	bySite := make([]float64, b.Sites)
	for _, src := range st.Sources {
		for _, p := range src.Input {
			bySite[b.SiteOfHost(p.Host)] += rdd.SizeOfAll(p.Records)
		}
	}
	b.AddBoundaryBytes(st, bySite)
	return bySite
}

// RunMapTask implements Backend: evaluate the partition, prepare it for the
// stage's shuffle, and store it at aggTo (pushed) or site (kept local).
func (b *MemBackend) RunMapTask(st *dag.Stage, part, site, aggTo, attempt int) error {
	recs, err := EvalStagePart(st, part, b.read)
	if err != nil {
		return err
	}
	prepared := rdd.MapSidePrepare(st.OutSpec, recs)
	holder := site
	if aggTo >= 0 {
		holder = aggTo
	}
	stored, _, err := b.store.Put(
		blockstore.Key{Shuffle: st.OutSpec.ID, MapPart: part},
		blockstore.Output{Attempt: attempt, Records: prepared})
	if err != nil {
		return err
	}
	if stored { // else a newer attempt already landed; keep its output
		b.RecordMapOutput(st.OutSpec.ID, st.NumTasks, part, holder, attempt, rdd.SizeOfAll(prepared))
	}
	return nil
}

// RunResultTask implements Backend.
func (b *MemBackend) RunResultTask(st *dag.Stage, part, site int) ([]rdd.Pair, error) {
	return EvalStagePart(st, part, b.read)
}

// Barrier implements Backend: prepare a range partitioner from keys sampled
// across the finished map outputs, like the engine's map-stage barrier.
func (b *MemBackend) Barrier(st *dag.Stage) error {
	spec := st.OutSpec
	return rdd.PrepareRange(spec, b.NumMaps(spec.ID), func(part, max int) ([]string, error) {
		recs, err := b.store.Get(blockstore.Key{Shuffle: spec.ID, MapPart: part})
		if err != nil {
			return nil, fmt.Errorf("plan: sampling shuffle %d map %d: %w", spec.ID, part, err)
		}
		return rdd.SampleKeys(recs, max), nil
	})
}

// OnTask implements Backend (obs.Sink).
func (b *MemBackend) OnTask(ev obs.TaskEvent) { b.Events.OnTask(ev) }

// OnStage implements Backend (obs.Sink).
func (b *MemBackend) OnStage(span StageSpan) { b.Events.OnStage(span) }

// read gathers one reduce partition's shard from every map output, in map
// order. The store buckets each output at most once (on its first shard
// read), so reading R reduce partitions does not re-bucket the output R
// times — the same exactly-once semantics the live workers rely on.
func (b *MemBackend) read(spec *rdd.ShuffleSpec, reducePart int) ([]rdd.Pair, error) {
	bucket := func(recs []rdd.Pair) ([][]rdd.Pair, error) {
		return rdd.BucketRecords(spec, recs), nil
	}
	var recs []rdd.Pair
	for part, n := 0, b.NumMaps(spec.ID); part < n; part++ {
		shards, err := b.store.Shards(blockstore.Key{Shuffle: spec.ID, MapPart: part}, bucket)
		if err != nil {
			return nil, fmt.Errorf("plan: reading shuffle %d map %d: %w", spec.ID, part, err)
		}
		if reducePart < 0 || reducePart >= len(shards) {
			return nil, fmt.Errorf("plan: shuffle %d reduce %d out of range", spec.ID, reducePart)
		}
		recs = append(recs, shards[reducePart]...)
	}
	return recs, nil
}
