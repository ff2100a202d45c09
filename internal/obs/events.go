package obs

import "sync"

// TaskPhase is one transition in a task's lifecycle.
type TaskPhase string

// Task lifecycle phases, in the order a healthy task passes through them.
// A failing attempt emits PhaseFailed; if the retry budget allows another
// attempt, PhaseRetried follows with the new attempt number. A simulated
// reader that finds shuffle output lost emits PhaseFailed and is scheduled
// again, same attempt number, once the output is recomputed.
const (
	PhaseScheduled TaskPhase = "scheduled"
	PhaseStarted   TaskPhase = "started"
	PhaseFinished  TaskPhase = "finished"
	PhaseRetried   TaskPhase = "retried"
	PhaseFailed    TaskPhase = "failed"
)

// TaskEvent is one task lifecycle transition, reported by whoever drives
// tasks (plan's driver for backend-driven jobs, internal/exec for the
// simulator's event loop).
type TaskEvent struct {
	Phase     TaskPhase `json:"phase"`
	Stage     int       `json:"stage"`
	StageName string    `json:"stage_name"`
	Part      int       `json:"part"`
	// Site is the task site (worker index or host ID); -1 when the event
	// precedes placement.
	Site    int     `json:"site"`
	Attempt int     `json:"attempt"`
	Time    float64 `json:"time_sec"`
	// Err carries the failure message on PhaseFailed events.
	Err string `json:"err,omitempty"`
}

// StageEvent reports one completed stage's execution window. It is the
// canonical stage-span shape: plan.StageSpan aliases it, so the simulator's
// virtual seconds and the live cluster's wall-clock seconds interoperate.
type StageEvent struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Start float64 `json:"start_sec"`
	End   float64 `json:"end_sec"`
}

// Sink receives run events. plan.Backend embeds it, widening the old
// StageDone-only hook: the Driver reports every task transition, stage
// completion and aggregator decision to the backend running the job.
// Implementations must be safe for concurrent use (concurrent tasks).
type Sink interface {
	// OnTask receives one task lifecycle transition.
	OnTask(ev TaskEvent)
	// OnStage receives one completed stage's execution window.
	OnStage(ev StageEvent)
	// OnPlacement receives one automatic aggregator decision as it is made.
	OnPlacement(d PlacementDecision)
}

// Event is one entry of the unified run-event log: either a task
// lifecycle transition or a completed stage window, in arrival order. It
// is the wire shape of the telemetry plane's /events stream (one JSON
// object per line).
type Event struct {
	// Seq numbers events in arrival order, starting at 1.
	Seq   int         `json:"seq"`
	Type  string      `json:"type"` // "task" | "stage"
	Task  *TaskEvent  `json:"task,omitempty"`
	Stage *StageEvent `json:"stage,omitempty"`
}

// phaseCounts summarizes a collector's stream for reports, maintained
// incrementally so reading it is O(1).
type phaseCounts struct {
	Scheduled, Started, Finished, Failed, Retried int
	// StagesDone counts completed stages.
	StagesDone int
}

// Collector is the standard Sink: it records every event once, in one
// unified log numbered from 1 in arrival order, and tallies it (Counts).
// Subscribers receive the live event stream for tailing. Beside the log it
// keeps the run's one record of its placement decisions, and it carries a
// metrics registry, which only perf/'s probes write (ROADMAP 1(b)). A nil
// *Collector discards everything, so callers need no enabled checks.
type Collector struct {
	reg *Registry
	// mu guards everything below, so the tally, the log and its tails move
	// together.
	mu         sync.Mutex
	counts     phaseCounts
	events     []Event
	subs       map[int]chan Event
	nextSub    int
	placements []PlacementDecision
}

// NewCollector returns a Collector with a fresh registry.
func NewCollector() *Collector {
	return &Collector{reg: NewRegistry()}
}

// OnTask implements Sink.
func (c *Collector) OnTask(ev TaskEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	switch ev.Phase {
	case PhaseScheduled:
		c.counts.Scheduled++
	case PhaseStarted:
		c.counts.Started++
	case PhaseFinished:
		c.counts.Finished++
	case PhaseFailed:
		c.counts.Failed++
	case PhaseRetried:
		c.counts.Retried++
	}
	c.appendLocked(Event{Type: "task", Task: &ev})
	c.mu.Unlock()
}

// OnStage implements Sink.
func (c *Collector) OnStage(ev StageEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counts.StagesDone++
	c.appendLocked(Event{Type: "stage", Stage: &ev})
	c.mu.Unlock()
}

// appendLocked numbers ev, logs it and fans it out to the subscribers. A
// subscriber whose buffer is full loses the event rather than stalling the
// publisher; the log still holds everything.
func (c *Collector) appendLocked(ev Event) {
	ev.Seq = len(c.events) + 1
	c.events = append(c.events, ev)
	for _, ch := range c.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// OnPlacement implements Sink.
func (c *Collector) OnPlacement(d PlacementDecision) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.placements = append(c.placements, d)
	c.mu.Unlock()
}

// Placements returns a copy of the recorded placement decisions in
// arrival order.
func (c *Collector) Placements() []PlacementDecision {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PlacementDecision(nil), c.placements...)
}

// Counts returns the stream summary.
func (c *Collector) Counts() phaseCounts {
	if c == nil {
		return phaseCounts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// eventLog returns a copy of the unified event log in arrival order.
func (c *Collector) eventLog() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Subscribe registers a live tail of the event stream: history is a copy of
// everything logged so far, and ch carries the events logged after that
// copy, none missed and none repeated, buffered with buf slots (at least
// one). cancel unregisters and closes ch; it is safe to call more than once.
// A nil collector returns an empty history and a nil channel.
func (c *Collector) Subscribe(buf int) (history []Event, ch <-chan Event, cancel func()) {
	if c == nil {
		return nil, nil, func() {}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.subs == nil {
		c.subs = map[int]chan Event{}
	}
	id := c.nextSub
	c.nextSub++
	sub := make(chan Event, max(buf, 1))
	c.subs[id] = sub
	cancel = func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if _, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(sub)
		}
	}
	return append([]Event(nil), c.events...), sub, cancel
}

// TaskEvents returns a copy of the recorded task events in arrival order.
func (c *Collector) TaskEvents() []TaskEvent {
	var out []TaskEvent
	for _, ev := range c.eventLog() {
		if ev.Task != nil {
			out = append(out, *ev.Task)
		}
	}
	return out
}

// stageEvents returns a copy of the recorded stage events in arrival order.
func (c *Collector) stageEvents() []StageEvent {
	var out []StageEvent
	for _, ev := range c.eventLog() {
		if ev.Stage != nil {
			out = append(out, *ev.Stage)
		}
	}
	return out
}

// Registry returns the collector's metrics registry (nil for a nil
// collector).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}
