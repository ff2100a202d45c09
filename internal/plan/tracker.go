package plan

import (
	"errors"
	"fmt"
	"sync"

	"wanshuffle/internal/dag"
)

// ErrNoMapOutput reports a lookup of a map output no task has recorded.
var ErrNoMapOutput = errors.New("no site holds the map output")

// mapOutput is the placement metadata of one map output: which site holds
// it, how big it measured, and which task attempt produced it. The records
// themselves live in the backend's block store.
type mapOutput struct {
	site    int
	bytes   float64
	attempt int
	ok      bool
}

// MapOutputTracker is the planner-side record of where every map output of
// a job lives (Spark's MapOutputTracker): per (shuffle, map partition) the
// holder site, the measured bytes and the producing attempt. Backends embed
// it; shuffle reads resolve holders through it and the next shuffle's
// aggregator choice reads the measured sizes. The zero value is ready to
// use and safe for concurrent use.
type MapOutputTracker struct {
	mu   sync.Mutex
	outs map[int][]mapOutput // shuffle ID → per-map-part placement
}

// RecordMapOutput notes that attempt produced map partition mapPart (of
// numMaps) of the shuffle, bytes big, now held at site. Last write wins by
// attempt: a stale retried attempt never clobbers a newer one, and the
// return value says whether this one was recorded.
func (t *MapOutputTracker) RecordMapOutput(shuffleID, numMaps, mapPart, site, attempt int, bytes float64) bool {
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
	outs[mapPart] = mapOutput{site: site, bytes: bytes, attempt: attempt, ok: true}
	return true
}

// Holder returns the site holding one map output, or an error wrapping
// ErrNoMapOutput when none has been recorded.
func (t *MapOutputTracker) Holder(shuffleID, mapPart int) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	outs := t.outs[shuffleID]
	if mapPart < 0 || mapPart >= len(outs) || !outs[mapPart].ok {
		return 0, fmt.Errorf("plan: shuffle %d map %d: %w", shuffleID, mapPart, ErrNoMapOutput)
	}
	return outs[mapPart].site, nil
}

// HolderSites returns which site holds each map output of a shuffle (0 for
// outputs not recorded yet).
func (t *MapOutputTracker) HolderSites(shuffleID int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	sites := make([]int, len(t.outs[shuffleID]))
	for i, o := range t.outs[shuffleID] {
		sites[i] = o.site
	}
	return sites
}

// NumMaps returns the shuffle's map-side partition count (0 before its
// first output is recorded).
func (t *MapOutputTracker) NumMaps(shuffleID int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.outs[shuffleID])
}

// AddBoundaryBytes is the shuffle half of Backend.InputSizes: it adds the
// measured bytes of every map output feeding stage st's shuffle boundaries
// to its holder site's share.
func (t *MapOutputTracker) AddBoundaryBytes(st *dag.Stage, bySite []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, bd := range st.Boundaries {
		for di := range bd.Deps {
			for _, o := range t.outs[bd.Deps[di].Shuffle.ID] {
				if o.ok {
					bySite[o.site] += o.bytes
				}
			}
		}
	}
}

// Reset forgets every recorded output (between jobs: shuffle IDs are
// graph-scoped, so leftovers could collide).
func (t *MapOutputTracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.outs = nil
}
