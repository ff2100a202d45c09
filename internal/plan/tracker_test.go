package plan

import (
	"errors"
	"reflect"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/shuffle"
)

// TestMapOutputTracker pins the driver's map-output table as its tasks and
// placement read it: a shuffle read resolves each output's holder, a newer
// record moves an output, and a stage's input sizes add the measured bytes
// at their holders.
func TestMapOutputTracker(t *testing.T) {
	d := NewDriver(nil, NewMemBackend(3), DriverConfig{})
	const id, numMaps = 7, 3
	task := Task{outputs: &d.outputs}
	holders := func() ([]int, error) {
		var got []int
		_, err := task.Gather(id, func(_, holder int) ([][]rdd.Pair, error) {
			got = append(got, holder)
			return nil, nil
		})
		return got, err
	}
	if _, err := holders(); !errors.Is(err, shuffle.ErrNoMapOutput) {
		t.Fatalf("read of an undeclared shuffle: err = %v, want ErrNoMapOutput", err)
	}
	d.outputs.Declare(id, numMaps)
	d.outputs.Declare(id+1, 1) // nothing recorded
	d.outputs.Record(id, 0, 2, 100, nil)
	d.outputs.Record(id, 1, 1, 40, nil)
	// Map 2 never finished: a typed error, and nothing is fetched.
	if got, err := holders(); !errors.Is(err, shuffle.ErrNoMapOutput) || got != nil {
		t.Fatalf("read with map 2 unrecorded = (%v, %v), want ErrNoMapOutput and no fetch", got, err)
	}
	d.outputs.Record(id, 2, 0, 7, nil)
	d.outputs.Record(id, 1, 2, 60, nil) // a newer output moves map 1
	if got, err := holders(); err != nil || !reflect.DeepEqual(got, []int{2, 2, 0}) {
		t.Fatalf("holders = (%v, %v), want [2 2 0]", got, err)
	}

	// The boundary half of a stage's input sizes: measured bytes land on
	// holder sites; a declared shuffle with nothing recorded adds nothing.
	st := &dag.Stage{Base: &rdd.RDD{Deps: []rdd.Dependency{
		{Shuffle: &rdd.ShuffleSpec{ID: id}},
		{Shuffle: &rdd.ShuffleSpec{ID: id + 1}},
	}}}
	if got, want := d.inputSizes(st, -1), []float64{7, 0, 160}; !reflect.DeepEqual(got, want) {
		t.Fatalf("inputSizes = %v, want %v", got, want)
	}
}
