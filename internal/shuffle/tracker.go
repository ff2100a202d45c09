package shuffle

import (
	"errors"
	"fmt"
	"sync"

	"wanshuffle/internal/rdd"
)

// ErrNoMapOutput reports a lookup of a map output no site holds: one never
// recorded, one dropped with its site, or one of a shuffle never declared.
var ErrNoMapOutput = errors.New("no site holds the map output")

// Tracker is the one record of where every map output lives (Spark's
// map-output tracker), and both backends keep theirs in it: per (shuffle,
// map part) the holder site, the output's bytes, its rdd.RangeSample, and
// whether the output is present. The simulator's Registry embeds one, with
// hosts as sites; plan's driver owns one per job, with workers as sites.
// Shuffle reads resolve holders through it, an aggregator choice reads its
// bytes, the map-stage barrier prepares range partitioners from its
// samples, and a lost site's outputs are dropped from it and listed as
// missing until their map tasks run again. The zero value is ready to use
// and safe for concurrent use: a live job's tasks record concurrently.
type Tracker struct {
	mu   sync.Mutex
	outs map[int][]tracked // shuffle ID → per map part, in map order
}

// tracked is one map output's entry.
type tracked struct {
	site   int
	bytes  float64
	sample []string
	ok     bool // present: recorded and not dropped since
}

// Declare declares a shuffle with its map-side partition count. Declaring
// it again is a no-op: an engine keeps its outputs across jobs.
func (t *Tracker) Declare(shuffleID, numMaps int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.outs[shuffleID]; ok {
		return
	}
	if t.outs == nil {
		t.outs = map[int][]tracked{}
	}
	t.outs[shuffleID] = make([]tracked, numMaps)
}

// declared returns the shuffle's entries; t.mu must be held. Every method
// taking a shuffle ID, Holders aside, panics on a shuffle never declared,
// which only a bug makes; a task's read gets Holders' error instead.
func (t *Tracker) declared(shuffleID int) []tracked {
	outs, ok := t.outs[shuffleID]
	if !ok {
		panic(fmt.Sprintf("shuffle: unknown shuffle %d", shuffleID))
	}
	return outs
}

// Record notes that map part mapPart of the shuffle is present at site,
// bytes big, with sample as its rdd.RangeSample; it replaces whatever was
// recorded for that part.
func (t *Tracker) Record(shuffleID, mapPart, site int, bytes float64, sample []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	outs := t.declared(shuffleID)
	if mapPart < 0 || mapPart >= len(outs) {
		panic(fmt.Sprintf("shuffle %d: map partition %d out of range [0,%d)", shuffleID, mapPart, len(outs)))
	}
	outs[mapPart] = tracked{site: site, bytes: bytes, sample: sample, ok: true}
}

// Holders returns the site holding each map output of the shuffle, in map
// order, or an error wrapping ErrNoMapOutput that names (shuffle, map part)
// of the first output no site holds.
func (t *Tracker) Holders(shuffleID int) ([]int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	outs, ok := t.outs[shuffleID]
	if !ok {
		return nil, fmt.Errorf("shuffle %d is not declared: %w", shuffleID, ErrNoMapOutput)
	}
	holders := make([]int, len(outs))
	for m, o := range outs {
		if !o.ok {
			return nil, noOutput(shuffleID, m)
		}
		holders[m] = o.site
	}
	return holders, nil
}

func noOutput(shuffleID, mapPart int) error {
	return fmt.Errorf("shuffle %d map %d: %w", shuffleID, mapPart, ErrNoMapOutput)
}

// DropSite drops every output the site holds, of every shuffle: the state
// lost with it (Spark's FetchFailed → missing map output). Each such part is
// missing until it is recorded again.
func (t *Tracker) DropSite(site int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, outs := range t.outs {
		for m := range outs {
			if outs[m].site == site {
				outs[m].ok = false
			}
		}
	}
}

// Missing lists, in order, the shuffle's map parts no site holds: none
// once the shuffle is complete.
func (t *Tracker) Missing(shuffleID int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var missing []int
	for m, o := range t.declared(shuffleID) {
		if !o.ok {
			missing = append(missing, m)
		}
	}
	return missing
}

// AddSiteBytes adds the bytes of every present output of the shuffle to its
// holder's entry of bySite, in map order.
func (t *Tracker) AddSiteBytes(shuffleID int, bySite []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.declared(shuffleID) {
		if o.ok {
			bySite[o.site] += o.bytes
		}
	}
}

// PrepareRange is the map-stage barrier, run once every output of the
// shuffle is present: rdd.PrepareRange over the recorded samples, in map
// order. The error wraps ErrNoMapOutput when an output is missing.
func (t *Tracker) PrepareRange(spec *rdd.ShuffleSpec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	outs := t.declared(spec.ID)
	samples := make([][]string, len(outs))
	for m, o := range outs {
		if !o.ok {
			return noOutput(spec.ID, m)
		}
		samples[m] = o.sample
	}
	rdd.PrepareRange(spec, samples)
	return nil
}
