// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue with cancellable timers, and seeded
// random-number streams.
//
// All of wanshuffle's timing (task execution, network flows, bandwidth
// jitter) runs on this kernel, so a run is a pure function of its
// configuration and seed. Two events scheduled for the same instant fire
// in the order they were scheduled.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Clock is a discrete-event virtual clock. The zero value is not usable;
// construct one with NewClock.
//
// Clock is not safe for concurrent use: the simulation kernel is
// single-threaded by design so that runs are deterministic.
type Clock struct {
	now   float64
	seq   uint64
	queue eventQueue
}

// Timer is a handle to a scheduled event. It can be used to cancel the
// event before it fires.
type Timer struct {
	item *eventItem
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. Cancel reports whether the event was
// still pending.
func (t Timer) Cancel() bool {
	if t.item == nil || t.item.cancelled || t.item.fired {
		return false
	}
	t.item.cancelled = true
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (t Timer) Pending() bool {
	return t.item != nil && !t.item.cancelled && !t.item.fired
}

type eventItem struct {
	at        float64
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
	index     int
}

type eventQueue []*eventItem

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	item := x.(*eventItem)
	item.index = len(*q)
	*q = append(*q, item)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return item
}

// NewClock returns a clock positioned at time zero with an empty event
// queue.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) is an error in the caller; the event is clamped to fire
// immediately at Now instead, preserving causality.
func (c *Clock) At(t float64, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if math.IsNaN(t) {
		panic("sim: At called with NaN time")
	}
	if t < c.now {
		t = c.now
	}
	c.seq++
	item := &eventItem{at: t, seq: c.seq, fn: fn}
	heap.Push(&c.queue, item)
	return Timer{item: item}
}

// After schedules fn to run d seconds from now. Negative d is clamped to
// zero.
func (c *Clock) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return c.At(c.now+d, fn)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event was fired (false means the queue is empty).
func (c *Clock) Step() bool {
	for c.queue.Len() > 0 {
		item := heap.Pop(&c.queue).(*eventItem)
		if item.cancelled {
			continue
		}
		if item.at < c.now {
			// Defensive: the heap invariant guarantees monotone pops, so
			// this indicates kernel corruption rather than user error.
			panic(fmt.Sprintf("sim: event time %v precedes clock %v", item.at, c.now))
		}
		c.now = item.at
		item.fired = true
		item.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty. It returns the number of
// events fired. Run panics after maxEvents events as a runaway-simulation
// backstop; pass 0 for the default of 50 million.
func (c *Clock) Run(maxEvents int) int {
	if maxEvents <= 0 {
		maxEvents = 50_000_000
	}
	fired := 0
	for c.Step() {
		fired++
		if fired >= maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events; likely a scheduling loop", maxEvents))
		}
	}
	return fired
}

// RunUntil fires events with timestamps ≤ deadline, then advances the clock
// to deadline. It returns the number of events fired.
func (c *Clock) RunUntil(deadline float64) int {
	fired := 0
	for c.queue.Len() > 0 {
		next := c.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		if c.Step() {
			fired++
		}
	}
	if c.now < deadline {
		c.now = deadline
	}
	return fired
}

func (c *Clock) peek() *eventItem {
	for c.queue.Len() > 0 {
		item := c.queue[0]
		if item.cancelled {
			heap.Pop(&c.queue)
			continue
		}
		return item
	}
	return nil
}

// Pending returns the number of live scheduled events.
func (c *Clock) Pending() int {
	n := 0
	for _, item := range c.queue {
		if !item.cancelled && !item.fired {
			n++
		}
	}
	return n
}
