package perf

import (
	"sync"
	"time"
)

// Speed correction.
//
// The machines this benchmark runs on are small shared virtual machines
// whose speed changes under it: on the box it was sized on, a fixed
// single-threaded loop swings between 25 and 43 ms over tens of seconds
// with no steal time reported, and the same job's median wall clock moves
// by 20-35% from one run to the next. No statistic of raw wall clock holds
// a bound under that. So every bounded time is taken together with a
// reference kernel: a fixed computation from this file, timed immediately
// before and after the interval, and the interval is reported as
//
//	wall x nominalRefSec / (kernel time around it)
//
// that is, in seconds at the speed at which the kernel takes
// nominalRefSec. A change that makes the program faster lowers the
// corrected time by the same share as the raw one; a machine that slows
// down for a minute lowers neither. The raw wall clock is reported beside
// it, unbounded.

// nominalRefSec is the reference kernel's time on the sizing machine when
// nothing else competes for it. It only fixes the unit.
const nominalRefSec = 0.0015

// refState is one goroutine's share of the reference kernel's memory.
type refState struct {
	small []byte   // 64 KiB, cache resident: the compute half
	table []uint64 // 4 MiB, beyond the second-level cache: the memory half
}

func newRefState(seed uint64) *refState {
	r := &refState{small: make([]byte, 64<<10), table: make([]uint64, 1<<19)}
	x := seed | 1
	for i := range r.small {
		x = x*6364136223846793005 + 1442695040888963407
		r.small[i] = byte(x >> 56)
	}
	return r
}

// run does a fixed amount of work and allocates nothing, so it never
// wakes the collector: hashing over the small buffer, then scattered
// read-modify-writes over the table.
func (r *refState) run() uint64 {
	h := uint64(fnvOffset64)
	for rep := 0; rep < 8; rep++ {
		for _, b := range r.small {
			h ^= uint64(b)
			h *= fnvPrime64
		}
	}
	x := h | 1
	for i := 0; i < 1<<17; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		r.table[x>>45] += x
	}
	return h ^ x
}

// refTimer times the reference kernel on as many goroutines as the
// interval it corrects keeps busy.
type refTimer struct {
	states []*refState
	sums   []uint64
}

func newRefTimer(par int) *refTimer {
	t := &refTimer{sums: make([]uint64, par)}
	for i := 0; i < par; i++ {
		t.states = append(t.states, newRefState(uint64(i)+1))
	}
	return t
}

// once runs the kernel on every goroutine at the same time and returns
// the wall clock until all are done.
func (t *refTimer) once() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, s := range t.states {
		wg.Add(1)
		go func(i int, s *refState) {
			defer wg.Done()
			t.sums[i] += s.run()
		}(i, s)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// sample is the fastest of three kernel runs: the machine's speed right
// now, with scheduling hiccups (which only ever add time) filtered out.
func (t *refTimer) sample() float64 {
	best := t.once()
	for i := 0; i < 2; i++ {
		if sec := t.once(); sec < best {
			best = sec
		}
	}
	return best
}

// speedFactor turns the kernel times sampled around an interval (before
// and after one job, or throughout the set-up phase) into the factor that
// corrects the interval's wall clock: nominal over their median.
func speedFactor(samples ...float64) float64 {
	m := Median(samples)
	if m <= 0 {
		return 1
	}
	return nominalRefSec / m
}
