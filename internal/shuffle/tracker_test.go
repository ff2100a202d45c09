package shuffle

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/rdd"
)

// TestTracker walks one table through a job's life: declared shuffles,
// recorded and moved outputs, a site lost and its outputs recomputed, and
// the map-stage barrier over the recorded samples.
func TestTracker(t *testing.T) {
	var tr Tracker
	noOutputAt := func(id, m int) {
		t.Helper()
		_, err := tr.Holders(id)
		if !errors.Is(err, ErrNoMapOutput) || !strings.Contains(err.Error(), fmt.Sprintf("shuffle %d map %d:", id, m)) {
			t.Fatalf("Holders(%d): err = %v, want ErrNoMapOutput naming map %d", id, err, m)
		}
	}
	missing := func(id int, want ...int) {
		t.Helper()
		if got := tr.Missing(id); !slices.Equal(got, want) {
			t.Fatalf("Missing(%d) = %v, want %v", id, got, want)
		}
	}
	if _, err := tr.Holders(7); !errors.Is(err, ErrNoMapOutput) {
		t.Fatalf("Holders of an undeclared shuffle: err = %v, want ErrNoMapOutput", err)
	}
	tr.Declare(7, 3)
	tr.Declare(3, 2)
	tr.Declare(7, 5) // a no-op: shuffle 7 keeps 3 parts
	missing(7, 0, 1, 2)
	noOutputAt(7, 0)

	tr.Record(7, 0, 2, 100, []string{"b"})
	tr.Record(7, 1, 1, 40, nil)
	tr.Record(7, 1, 2, 60, []string{"y"}) // a newer output replaces the old
	tr.Record(7, 2, 4, 5, []string{"q"})
	tr.Record(3, 0, 4, 1, nil)
	tr.Record(3, 1, 9, 1, nil)
	if got, err := tr.Holders(7); err != nil || !reflect.DeepEqual(got, []int{2, 2, 4}) {
		t.Fatalf("Holders(7) = (%v, %v), want [2 2 4]", got, err)
	}
	missing(7)

	// Bytes land on holder sites, on top of what the caller counted there.
	bySite := make([]float64, 10)
	bySite[0] = 5
	tr.AddSiteBytes(7, bySite)
	if want := []float64{5, 0, 160, 0, 5, 0, 0, 0, 0, 0}; !reflect.DeepEqual(bySite, want) {
		t.Fatalf("AddSiteBytes = %v, want %v", bySite, want)
	}

	// Losing site 4 drops its outputs of every shuffle and nothing else.
	tr.DropSite(4)
	missing(7, 2)
	missing(3, 0)
	noOutputAt(7, 2)
	clear(bySite)
	tr.AddSiteBytes(7, bySite)
	if bySite[4] != 0 || bySite[2] != 160 {
		t.Fatalf("AddSiteBytes after the drop = %v, want site 4 empty", bySite)
	}

	// The barrier leaves a ready partitioner alone and refuses an
	// incomplete shuffle.
	hash := &rdd.ShuffleSpec{ID: 3, Partitioner: rdd.NewHashPartitioner(2)}
	if err := tr.PrepareRange(hash); !errors.Is(err, ErrNoMapOutput) {
		t.Fatalf("barrier with map 0 missing: err = %v, want ErrNoMapOutput", err)
	}
	pending := &rdd.ShuffleSpec{ID: 7, Partitioner: rdd.NewRangePartitioner(2)}
	if err := tr.PrepareRange(pending); !errors.Is(err, ErrNoMapOutput) || pending.Partitioner.Ready() {
		t.Fatalf("barrier with map 2 missing: err = %v, ready = %v", err, pending.Partitioner.Ready())
	}

	// A recomputed output restores the shuffle, at its new holder.
	tr.Record(7, 2, 5, 5, []string{"r"})
	if got, err := tr.Holders(7); err != nil || !reflect.DeepEqual(got, []int{2, 2, 5}) {
		t.Fatalf("Holders(7) after recompute = (%v, %v), want [2 2 5]", got, err)
	}
	ready := rdd.NewRangePartitioner(2)
	ready.Prepare([]string{"a", "m", "z"})
	if err := tr.PrepareRange(&rdd.ShuffleSpec{ID: 7, Partitioner: ready}); err != nil || ready.PartitionFor("b") != 0 {
		t.Fatalf("ready partitioner: err = %v, b lands in shard %d", err, ready.PartitionFor("b"))
	}
	if err := tr.PrepareRange(pending); err != nil {
		t.Fatal(err)
	}
	want := rdd.NewRangePartitioner(2)
	want.Prepare([]string{"b", "y", "r"})
	for _, k := range []string{"a", "b", "c", "r", "s", "y", "z"} {
		if got, w := pending.Partitioner.PartitionFor(k), want.PartitionFor(k); got != w {
			t.Fatalf("%q lands in shard %d, the recorded samples put it in %d", k, got, w)
		}
	}

	for name, f := range map[string]func(){
		"Record undeclared":     func() { tr.Record(8, 0, 0, 0, nil) },
		"Record out of range":   func() { tr.Record(7, 3, 0, 0, nil) },
		"Missing undeclared":    func() { tr.Missing(8) },
		"barrier undeclared":    func() { _ = tr.PrepareRange(&rdd.ShuffleSpec{ID: 8, Partitioner: rdd.NewHashPartitioner(1)}) },
		"site bytes undeclared": func() { tr.AddSiteBytes(8, bySite) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestTrackerConcurrent records into one table from many goroutines while
// others read it, as a live job's tasks and reducers do; run it under -race.
func TestTrackerConcurrent(t *testing.T) {
	const id, maps, writers, readers, rounds = 1, 64, 8, 4, 50
	var tr Tracker
	tr.Declare(id, maps)
	var wrote, read sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wrote.Add(1)
		go func() {
			defer wrote.Done()
			for r := 0; r < rounds; r++ {
				for m := w; m < maps; m += writers {
					tr.Record(id, m, w, 1, nil)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		read.Add(1)
		go func() {
			defer read.Done()
			bySite := make([]float64, writers)
			for {
				select {
				case <-done:
					return
				default:
				}
				if holders, err := tr.Holders(id); err == nil {
					for m, site := range holders {
						if site != m%writers {
							t.Errorf("map %d held at %d, want %d", m, site, m%writers)
						}
					}
				} else if !errors.Is(err, ErrNoMapOutput) {
					t.Errorf("Holders: %v", err)
				}
				tr.Missing(id)
				tr.AddSiteBytes(id, bySite)
			}
		}()
	}
	wrote.Wait()
	close(done)
	read.Wait()
	if missing := tr.Missing(id); len(missing) != 0 {
		t.Fatalf("Missing after every record = %v", missing)
	}
}
