package plan

import (
	"fmt"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// memBackend is the in-memory reference Backend: tasks run inline and every
// site shares one block store, so shuffle bytes "move" only in the driver's
// tracker, and every site is always healthy. It exists to test the driver's
// planning, placement, and aggregation decisions without a network; the
// live cluster's backend shares none of its code. Its store holds one job's
// outputs (shuffle IDs are graph-scoped): run each job on a backend of its
// own.
type memBackend struct {
	Sites int

	// Events collects the driver's run events (task lifecycle, stage
	// spans and placement decisions).
	Events *obs.Collector

	// store holds the prepared map outputs — the same storage code path the
	// live cluster's workers use, so bucketing caches and attempt
	// idempotency are not reimplemented here. It locks internally.
	store blockstore.Store
}

// NewMemBackend creates a backend with the given number of sites, storing
// shuffle blocks fully resident.
func NewMemBackend(sites int) *memBackend {
	return &memBackend{Sites: sites, Events: obs.NewCollector(), store: blockstore.NewMemStore(nil)}
}

// Store returns the backend's block store.
func (b *memBackend) Store() blockstore.Store { return b.store }

// NumSites implements Backend.
func (b *memBackend) NumSites() int { return b.Sites }

// SiteHealthy implements Backend: no site of a memBackend fails.
func (b *memBackend) SiteHealthy(int) bool { return true }

// RunTask implements Backend: evaluate the task's output and, for a map
// stage — whose output TaskOutput has prepared for the stage's shuffle and
// checked against the record codec — store it.
func (b *memBackend) RunTask(t Task) (TaskResult, error) {
	res, err := TaskOutput(t, b.reader(t))
	spec := t.Stage.OutSpec
	if err != nil || spec == nil {
		return res, err
	}
	// A stale attempt's Put is a no-op: the store keeps the newest attempt.
	_, _, err = b.store.Put(
		blockstore.Key{Shuffle: spec.ID, MapPart: t.Part},
		blockstore.Output{Attempt: t.Attempt, Records: res.Records})
	return res, err
}

// OnTask implements Backend (obs.Sink).
func (b *memBackend) OnTask(ev obs.TaskEvent) { b.Events.OnTask(ev) }

// OnStage implements Backend (obs.Sink).
func (b *memBackend) OnStage(span StageSpan) { b.Events.OnStage(span) }

// OnPlacement implements Backend (obs.Sink).
func (b *memBackend) OnPlacement(d obs.PlacementDecision) { b.Events.OnPlacement(d) }

// reader reads task t's shuffle input from the shared store: each run is
// the store's own shard.
func (b *memBackend) reader(t Task) ShuffleReader {
	return func(spec *rdd.ShuffleSpec, reduce int) ([][]rdd.Pair, error) {
		return t.Gather(spec.ID, func(mapPart, _ int) ([][]rdd.Pair, error) { return b.shard(spec, mapPart, reduce) })
	}
}

// shard reads one reduce partition's shard of one map output. The store
// buckets each output at most once (on its first shard read), so reading R
// reduce partitions does not re-bucket the output R times — the same
// exactly-once semantics the live workers rely on.
func (b *memBackend) shard(spec *rdd.ShuffleSpec, mapPart, reduce int) ([][]rdd.Pair, error) {
	shard, err := b.store.Shard(blockstore.Key{Shuffle: spec.ID, MapPart: mapPart}, reduce,
		func(recs []rdd.Pair) ([][]rdd.Pair, error) { return rdd.BucketRecords(spec, recs), nil })
	if err != nil {
		return nil, fmt.Errorf("plan: reading shuffle %d map %d: %w", spec.ID, mapPart, err)
	}
	return [][]rdd.Pair{shard}, nil
}
