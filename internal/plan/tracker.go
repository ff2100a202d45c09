package plan

import (
	"errors"
	"fmt"
	"sync"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
)

// ErrNoMapOutput reports a lookup of a map output no task has recorded.
var ErrNoMapOutput = errors.New("no site holds the map output")

// mapOutput is the placement metadata of one map output: which site holds
// it, how big it measured, the range sample its task took of it, and which
// task attempt produced it. The records themselves live in the backend.
type mapOutput struct {
	site    int
	bytes   float64
	sample  []string
	attempt int
	ok      bool
}

// MapOutputTracker is the planner-side record of where every map output of
// a job lives (Spark's MapOutputTracker): per (shuffle, map partition) the
// holder site, the measured bytes, the range sample and the producing
// attempt. The Driver owns the job's one tracker: it records every finished
// map task, shuffle reads resolve holders through it (Task.Gather), the next
// shuffle's aggregator choice reads the measured sizes, and the map-stage
// barrier prepares range partitioners from the samples. The zero value is
// ready to use and safe for concurrent use.
type MapOutputTracker struct {
	mu   sync.Mutex
	outs map[int][]mapOutput // shuffle ID → per-map-part placement
}

// RecordMapOutput notes that attempt produced map partition mapPart (of
// numMaps) of the shuffle, bytes big, now held at site, with sample as its
// rdd.RangeSample. Last write wins by attempt: a stale retried attempt
// never clobbers a newer one, and the return value says whether this one
// was recorded.
func (t *MapOutputTracker) RecordMapOutput(shuffleID, numMaps, mapPart, site, attempt int, bytes float64, sample []string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	outs := t.outs[shuffleID]
	if outs == nil {
		if t.outs == nil {
			t.outs = map[int][]mapOutput{}
		}
		outs = make([]mapOutput, numMaps)
		t.outs[shuffleID] = outs
	}
	if outs[mapPart].ok && outs[mapPart].attempt > attempt {
		return false
	}
	outs[mapPart] = mapOutput{site: site, bytes: bytes, sample: sample, attempt: attempt, ok: true}
	return true
}

// output returns one recorded map output, or an error wrapping
// ErrNoMapOutput when none has been recorded.
func (t *MapOutputTracker) output(shuffleID, mapPart int) (mapOutput, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	outs := t.outs[shuffleID]
	if mapPart < 0 || mapPart >= len(outs) || !outs[mapPart].ok {
		return mapOutput{}, fmt.Errorf("plan: shuffle %d map %d: %w", shuffleID, mapPart, ErrNoMapOutput)
	}
	return outs[mapPart], nil
}

// Holder returns the site holding one map output, or an error wrapping
// ErrNoMapOutput when none has been recorded.
func (t *MapOutputTracker) Holder(shuffleID, mapPart int) (int, error) {
	o, err := t.output(shuffleID, mapPart)
	return o.site, err
}

// NumMaps returns the shuffle's map-side partition count (0 before its
// first output is recorded).
func (t *MapOutputTracker) NumMaps(shuffleID int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.outs[shuffleID])
}

// AddBoundaryBytes is the shuffle half of a stage's input sizes: it adds
// the measured bytes of every map output feeding stage st's base (none, for
// a leaf) to its holder site's share.
func (t *MapOutputTracker) AddBoundaryBytes(st *dag.Stage, bySite []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for di := range st.Base.Deps {
		for _, o := range t.outs[st.Base.Deps[di].Shuffle.ID] {
			if o.ok {
				bySite[o.site] += o.bytes
			}
		}
	}
}

// PrepareRange is the map-stage barrier, run once every one of the numMaps
// map tasks feeding spec has been recorded: a sampled range partitioner
// gets its boundaries from the tracked samples, in map order, before any
// consumer reads the shuffle. Any other spec is left alone.
func (t *MapOutputTracker) PrepareRange(spec *rdd.ShuffleSpec, numMaps int) error {
	return rdd.PrepareRange(spec, numMaps, func(mapPart, _ int) ([]string, error) {
		o, err := t.output(spec.ID, mapPart)
		return o.sample, err
	})
}
