package plan

import (
	"fmt"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// MemBackend is the in-memory reference Backend: tasks run inline and every
// site shares one block store, so shuffle bytes "move" only in the Driver's
// tracker. It exists to test the Driver's planning, placement, and
// aggregation decisions without a network, and as the template for real
// backends.
type MemBackend struct {
	Sites int

	// Events collects the driver's run events (task lifecycle + stage
	// spans).
	Events *obs.Collector

	// store holds the prepared map outputs — the same storage code path the
	// live cluster's workers use, so bucketing caches and attempt
	// idempotency are not reimplemented here. It locks internally.
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

// RunTask implements Backend: evaluate the task's output and, for a map
// stage — whose output TaskOutput has prepared for the stage's shuffle —
// store it.
func (b *MemBackend) RunTask(t Task) (TaskResult, error) {
	out, err := TaskOutput(t.Stage, t.Part, b.reader(t))
	spec := t.Stage.OutSpec
	if err != nil || spec == nil {
		return TaskResult{Records: out}, err
	}
	// A stale attempt's Put is a no-op, and the tracker drops its record.
	_, _, err = b.store.Put(
		blockstore.Key{Shuffle: spec.ID, MapPart: t.Part},
		blockstore.Output{Attempt: t.Attempt, Records: out})
	return TaskResult{Bytes: rdd.EncodedSize(out), Sample: rdd.RangeSample(spec, out)}, err
}

// OnTask implements Backend (obs.Sink).
func (b *MemBackend) OnTask(ev obs.TaskEvent) { b.Events.OnTask(ev) }

// OnStage implements Backend (obs.Sink).
func (b *MemBackend) OnStage(span StageSpan) { b.Events.OnStage(span) }

// reader gathers task t's shuffle input from the shared store.
func (b *MemBackend) reader(t Task) ShuffleReader {
	return func(spec *rdd.ShuffleSpec, reduce int) ([]rdd.Pair, error) {
		return t.Gather(spec.ID, func(mapPart, _ int) ([][]rdd.Pair, error) { return b.shard(spec, mapPart, reduce) })
	}
}

// shard reads one reduce partition's shard of one map output. The store
// buckets each output at most once (on its first shard read), so reading R
// reduce partitions does not re-bucket the output R times — the same
// exactly-once semantics the live workers rely on.
func (b *MemBackend) shard(spec *rdd.ShuffleSpec, mapPart, reduce int) ([][]rdd.Pair, error) {
	shard, err := b.store.Shard(blockstore.Key{Shuffle: spec.ID, MapPart: mapPart}, reduce,
		func(recs []rdd.Pair) ([][]rdd.Pair, error) { return rdd.BucketRecords(spec, recs), nil })
	if err != nil {
		return nil, fmt.Errorf("plan: reading shuffle %d map %d: %w", spec.ID, mapPart, err)
	}
	return [][]rdd.Pair{shard}, nil
}
