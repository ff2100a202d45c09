package plan

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/shuffle"
	"wanshuffle/internal/topology"
)

// TestGatherNamesTheMissingOutput: a shuffle read resolves every holder
// through the driver's tracker, and one over a shuffle with an output
// dropped fetches nothing and fails with shuffle.ErrNoMapOutput naming
// (shuffle, map part).
func TestGatherNamesTheMissingOutput(t *testing.T) {
	var tr shuffle.Tracker
	const id, maps = 7, 3
	tr.Declare(id, maps)
	for m := 0; m < maps; m++ {
		tr.Record(id, m, 10+m, 1, nil)
	}
	task := Task{outputs: &tr}
	fetched := 0
	fetch := func(m, holder int) ([][]rdd.Pair, error) {
		fetched++
		return [][]rdd.Pair{{rdd.KV(fmt.Sprint(m), holder)}}, nil
	}
	runs, err := task.Gather(id, fetch)
	if err != nil || len(runs) != maps {
		t.Fatalf("Gather = (%v, %v), want %d runs", runs, err, maps)
	}
	for m, run := range runs {
		if run[0].Key != fmt.Sprint(m) || run[0].Value != 10+m {
			t.Fatalf("run %d = %v, want map %d's, fetched from its holder %d", m, run, m, 10+m)
		}
	}

	tr.DropSite(11)
	fetched = 0
	runs, err = task.Gather(id, fetch)
	if !errors.Is(err, shuffle.ErrNoMapOutput) || !strings.Contains(err.Error(), "shuffle 7 map 1") {
		t.Fatalf("Gather over a dropped output: err = %v, want ErrNoMapOutput naming shuffle 7 map 1", err)
	}
	if runs != nil || fetched != 0 {
		t.Fatalf("Gather over a dropped output returned %v after %d fetches, want nothing fetched", runs, fetched)
	}
}

// TestBarrierPreparesRangeFromTrackedSamples pins the map-stage barrier: a
// sampled range spec gets the boundaries rdd.PrepareRange draws from every
// stored output read back from the store, though the driver samples none:
// it prepares from the samples its map tasks returned.
func TestBarrierPreparesRangeFromTrackedSamples(t *testing.T) {
	const maps, reduces = 5, 4
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, maps)
	for p := range inputs {
		for i := 0; i < 300*p; i++ { // map 0 is empty, map 4 is above the sample cap
			inputs[p].Records = append(inputs[p].Records, rdd.KV(fmt.Sprintf("%05d", (i*173+p*41)%2500), i))
		}
		inputs[p].Host, inputs[p].ModeledBytes = topology.HostID(p), 1
	}
	job, err := BuildJob(g.Input("in", inputs).SortByKey("sorted", reduces))
	if err != nil {
		t.Fatal(err)
	}
	spec := job.Stages()[0].OutSpec
	want := &rdd.ShuffleSpec{ID: spec.ID, Partitioner: rdd.NewRangePartitioner(reduces)}
	be := &barrierProbe{memBackend: NewMemBackend(3)}
	// Sample the stored outputs after the map stage, before the first shard
	// read buckets them.
	be.afterMapStage = func() {
		samples := make([][]string, maps)
		for m := range samples {
			var recs []rdd.Pair
			recs, err = be.Store().Get(blockstore.Key{Shuffle: spec.ID, MapPart: m})
			if err != nil {
				return
			}
			samples[m] = rdd.RangeSample(want, recs)
		}
		rdd.PrepareRange(want, samples)
	}
	if _, runErr := NewDriver(job, be, DriverConfig{}).Run(); runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	for _, in := range inputs {
		for _, rec := range in.Records {
			if got, want := spec.Partitioner.PartitionFor(rec.Key), want.Partitioner.PartitionFor(rec.Key); got != want {
				t.Fatalf("key %q lands in shard %d, the stored outputs' boundaries put it in %d", rec.Key, got, want)
			}
		}
	}
}

// barrierProbe calls afterMapStage once, before the first result task runs.
type barrierProbe struct {
	*memBackend
	once          sync.Once
	afterMapStage func()
}

func (b *barrierProbe) RunTask(t Task) (TaskResult, error) {
	if t.Stage.OutSpec == nil {
		b.once.Do(b.afterMapStage)
	}
	return b.memBackend.RunTask(t)
}
