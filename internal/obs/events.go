package obs

import "sync"

// TaskPhase is one transition in a task's lifecycle.
type TaskPhase string

// Task lifecycle phases, in the order a healthy task passes through them.
// A failing attempt emits PhaseFailed; if the retry budget allows another
// attempt, PhaseRetried follows with the new attempt number.
const (
	PhaseScheduled TaskPhase = "scheduled"
	PhaseStarted   TaskPhase = "started"
	PhaseFinished  TaskPhase = "finished"
	PhaseRetried   TaskPhase = "retried"
	PhaseFailed    TaskPhase = "failed"
)

// TaskEvent is one task lifecycle transition, reported by whoever drives
// tasks (plan.Driver for backend-driven jobs, internal/exec for the
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

// PhaseCounts summarizes a collector's stream for reports, maintained
// incrementally so reading it is O(1).
type PhaseCounts struct {
	Scheduled, Started, Finished, Failed, Retried int
	// StagesDone counts completed stages.
	StagesDone int
}

// Collector is the standard Sink: it records every event once, in one
// unified log, and tallies it (Counts). Subscribers receive the live event
// stream for tailing. Beside the log it keeps the run's one record of its
// placement decisions, and it carries a metrics registry, which only
// perf/'s probes write (ROADMAP 1(b)). A nil *Collector discards
// everything, so callers need no enabled checks.
type Collector struct {
	reg *Registry
	log Log[Event]
	// mu guards counts and placements, and is held across the append, so
	// the tally and the log move together.
	mu         sync.Mutex
	counts     PhaseCounts
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
	c.log.Append(func(seq int) Event { return Event{Seq: seq, Type: "task", Task: &ev} })
	c.mu.Unlock()
}

// OnStage implements Sink.
func (c *Collector) OnStage(ev StageEvent) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counts.StagesDone++
	c.log.Append(func(seq int) Event { return Event{Seq: seq, Type: "stage", Stage: &ev} })
	c.mu.Unlock()
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
func (c *Collector) Counts() PhaseCounts {
	if c == nil {
		return PhaseCounts{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Events returns a copy of the unified event log in arrival order.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	return c.log.Snapshot()
}

// Subscribe registers a live tail of the event stream (Log.Subscribe). A
// nil collector returns an empty history and a nil channel.
func (c *Collector) Subscribe(buf int) (history []Event, ch <-chan Event, cancel func()) {
	if c == nil {
		return nil, nil, func() {}
	}
	return c.log.Subscribe(buf)
}

// TaskEvents returns a copy of the recorded task events in arrival order.
func (c *Collector) TaskEvents() []TaskEvent {
	var out []TaskEvent
	for _, ev := range c.Events() {
		if ev.Task != nil {
			out = append(out, *ev.Task)
		}
	}
	return out
}

// StageEvents returns a copy of the recorded stage events in arrival order.
func (c *Collector) StageEvents() []StageEvent {
	var out []StageEvent
	for _, ev := range c.Events() {
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
