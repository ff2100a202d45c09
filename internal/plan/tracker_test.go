package plan

import (
	"errors"
	"reflect"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
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

	if !tr.RecordMapOutput(shuffle, numMaps, 0, 2, 2, 100) {
		t.Fatal("first record rejected")
	}
	if !tr.RecordMapOutput(shuffle, numMaps, 1, 1, 1, 40) {
		t.Fatal("first record rejected")
	}
	// A stale retried attempt never clobbers the newer output's placement.
	if tr.RecordMapOutput(shuffle, numMaps, 0, 0, 1, 999) {
		t.Fatal("stale attempt recorded over a newer one")
	}
	if site, err := tr.Holder(shuffle, 0); err != nil || site != 2 {
		t.Fatalf("Holder(0) = (%d, %v), want site 2", site, err)
	}
	// A newer attempt moves the output.
	if !tr.RecordMapOutput(shuffle, numMaps, 1, 2, 3, 60) {
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
	if got, want := tr.HolderSites(shuffle), []int{2, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HolderSites = %v, want %v", got, want)
	}

	// The boundary half of InputSizes: measured bytes land on holder
	// sites, on top of whatever the caller already counted there.
	st := &dag.Stage{Boundaries: []*rdd.RDD{{Deps: []rdd.Dependency{
		{Shuffle: &rdd.ShuffleSpec{ID: shuffle}},
		{Shuffle: &rdd.ShuffleSpec{ID: shuffle + 1}}, // nothing recorded
	}}}}
	bySite := []float64{5, 0, 0}
	tr.AddBoundaryBytes(st, bySite)
	if want := []float64{5, 0, 160}; !reflect.DeepEqual(bySite, want) {
		t.Fatalf("AddBoundaryBytes = %v, want %v", bySite, want)
	}

	tr.Reset()
	if n := tr.NumMaps(shuffle); n != 0 {
		t.Fatalf("NumMaps after Reset = %d, want 0", n)
	}
	if _, err := tr.Holder(shuffle, 0); !errors.Is(err, ErrNoMapOutput) {
		t.Fatalf("Holder after Reset: err = %v, want ErrNoMapOutput", err)
	}
	if !tr.RecordMapOutput(shuffle, numMaps, 0, 1, 1, 10) {
		t.Fatal("record after Reset rejected (stale attempt state survived)")
	}
}
