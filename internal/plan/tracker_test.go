package plan

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

func TestMapOutputTracker(t *testing.T) {
	var tr MapOutputTracker
	const shuffle, numMaps = 7, 3

	if _, err := tr.Holder(shuffle, 0); !errors.Is(err, ErrNoMapOutput) {
		t.Fatalf("Holder before any record: err = %v, want ErrNoMapOutput", err)
	}
	if n := tr.NumMaps(shuffle); n != 0 {
		t.Fatalf("NumMaps before any record = %d, want 0", n)
	}

	if !tr.RecordMapOutput(shuffle, numMaps, 0, 2, 2, 100, []string{"second"}) {
		t.Fatal("first record rejected")
	}
	if !tr.RecordMapOutput(shuffle, numMaps, 1, 1, 1, 40, nil) {
		t.Fatal("first record rejected")
	}
	// A stale retried attempt never clobbers the newer output's placement.
	if tr.RecordMapOutput(shuffle, numMaps, 0, 0, 1, 999, []string{"stale"}) {
		t.Fatal("stale attempt recorded over a newer one")
	}
	if site, err := tr.Holder(shuffle, 0); err != nil || site != 2 {
		t.Fatalf("Holder(0) = (%d, %v), want site 2", site, err)
	}
	// A newer attempt moves the output.
	if !tr.RecordMapOutput(shuffle, numMaps, 1, 2, 3, 60, []string{"third"}) {
		t.Fatal("newer attempt rejected")
	}
	if n := tr.NumMaps(shuffle); n != numMaps {
		t.Fatalf("NumMaps = %d, want %d", n, numMaps)
	}
	// Map 2 never finished: a typed error, also for out-of-range parts.
	for _, part := range []int{2, numMaps, -1} {
		if _, err := tr.Holder(shuffle, part); !errors.Is(err, ErrNoMapOutput) {
			t.Fatalf("Holder(%d): err = %v, want ErrNoMapOutput", part, err)
		}
	}
	// The sample is last-write-wins by attempt, like holder and bytes.
	for part, want := range [][]string{{"second"}, {"third"}} {
		if o, err := tr.output(shuffle, part); err != nil || o.site != 2 || !reflect.DeepEqual(o.sample, want) {
			t.Fatalf("output(%d) = (%+v, %v), want site 2 with sample %v", part, o, err, want)
		}
	}

	// The boundary half of a stage's input sizes: measured bytes land on holder
	// sites, on top of whatever the caller already counted there.
	st := &dag.Stage{Base: &rdd.RDD{Deps: []rdd.Dependency{
		{Shuffle: &rdd.ShuffleSpec{ID: shuffle}},
		{Shuffle: &rdd.ShuffleSpec{ID: shuffle + 1}}, // nothing recorded
	}}}
	bySite := []float64{5, 0, 0}
	tr.AddBoundaryBytes(st, bySite)
	if want := []float64{5, 0, 160}; !reflect.DeepEqual(bySite, want) {
		t.Fatalf("AddBoundaryBytes = %v, want %v", bySite, want)
	}
}

// TestBarrierPreparesRangeFromTrackedSamples pins the map-stage barrier:
// it leaves a hash spec and an already prepared range partitioner alone,
// and gives a sampled range spec the boundaries the old path computed —
// rdd.PrepareRange sampling every stored output read back from the store.
func TestBarrierPreparesRangeFromTrackedSamples(t *testing.T) {
	var tr MapOutputTracker
	if err := tr.PrepareRange(&rdd.ShuffleSpec{ID: 1, Partitioner: rdd.NewHashPartitioner(2)}, 3); err != nil {
		t.Fatalf("hash spec: %v (nothing is recorded, so the tracker was read)", err)
	}
	ready := rdd.NewRangePartitioner(2)
	ready.Prepare([]string{"a", "m", "z"})
	if err := tr.PrepareRange(&rdd.ShuffleSpec{ID: 1, Partitioner: ready}, 3); err != nil {
		t.Fatalf("ready partitioner: %v", err)
	}
	if got := ready.PartitionFor("b"); got != 0 {
		t.Fatalf("ready partitioner re-prepared: b lands in shard %d", got)
	}
	pending := &rdd.ShuffleSpec{ID: 1, Partitioner: rdd.NewRangePartitioner(2)}
	if err := tr.PrepareRange(pending, 3); !errors.Is(err, ErrNoMapOutput) {
		t.Fatalf("barrier over unrecorded outputs: err = %v, want ErrNoMapOutput", err)
	}

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
	spec := job.Plan.Shuffles()[0]
	want := rdd.NewRangePartitioner(reduces)
	be := &barrierProbe{MemBackend: NewMemBackend(3)}
	// The old barrier, run where it used to run: after the map stage, before
	// the first shard read buckets the stored outputs.
	be.afterMapStage = func() {
		err = rdd.PrepareRange(&rdd.ShuffleSpec{ID: spec.ID, Partitioner: want}, maps,
			func(m, max int) ([]string, error) {
				recs, err := be.Store().Get(blockstore.Key{Shuffle: spec.ID, MapPart: m})
				return rdd.SampleKeys(recs, max), err
			})
	}
	if _, runErr := NewDriver(job, be, DriverConfig{}).Run(); runErr != nil || err != nil {
		t.Fatal(runErr, err)
	}
	for _, in := range inputs {
		for _, rec := range in.Records {
			if got, want := spec.Partitioner.PartitionFor(rec.Key), want.PartitionFor(rec.Key); got != want {
				t.Fatalf("key %q lands in shard %d, the stored outputs' boundaries put it in %d", rec.Key, got, want)
			}
		}
	}
}

// barrierProbe calls afterMapStage once, before the first result task runs.
type barrierProbe struct {
	*MemBackend
	once          sync.Once
	afterMapStage func()
}

func (b *barrierProbe) RunTask(t Task) (TaskResult, error) {
	if t.Stage.OutSpec == nil {
		b.once.Do(b.afterMapStage)
	}
	return b.MemBackend.RunTask(t)
}
