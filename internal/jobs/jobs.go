// Package jobs is the job service fronting both execution backends: a
// bounded FIFO submission queue, one dispatcher, and the full job lifecycle
// (queued → running → done/failed/canceled/rejected) with cooperative
// cancellation and per-job deadlines.
//
// The paper observes that "it is common that a Spark cluster is shared by
// multiple jobs" (Sec. IV-E); Exoshuffle and FuxiShuffle push the point
// further — shuffle belongs behind a long-running *service*, not a one-shot
// CLI invocation. This package is that service layer: callers submit work
// as run closures (a live-cluster job, a fresh simulator context, anything
// honoring a context.Context), and the service runs them.
//
// Jobs run one at a time, in the order they arrive — Spark's default
// spark.scheduler.mode=FIFO. Both backends execute a single job per
// cluster (the live Cluster is strictly sequential; the engine returns
// exec.ErrBusy), so which queued job runs next is the only decision there
// is. A job's tenant labels it in listings and events; it does not affect
// the order.
//
// The queue bound is the one admission rule: a submission past
// Config.MaxQueue, or one made after Close, is rejected with a typed
// *ErrRejected, recorded as a terminal "rejected" job so the /jobs listing
// accounts for every shed submission.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"wanshuffle/internal/obs"
)

// State is one point in a job's lifecycle.
type State string

// Lifecycle states. A healthy job passes queued → running → done; rejected
// is terminal at submission time, canceled and failed are the other
// terminal outcomes.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateRejected State = "rejected"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateRejected:
		return true
	}
	return false
}

// Rejection reasons carried by ErrRejected.
const (
	ReasonQueueFull = "queue_full"
	ReasonClosed    = "closed"
)

// ErrRejected is the typed admission-control failure: the service refused
// to queue the submission. Callers distinguish it from transport or build
// errors with errors.As and retry later (or shed the request upstream).
type ErrRejected struct {
	// Reason is one of the Reason* constants.
	Reason string
	// Limit and Have quantify the exceeded bound for ReasonQueueFull: the
	// queue bound and the jobs queued.
	Limit, Have int64
}

// Error implements error.
func (e *ErrRejected) Error() string {
	if e.Reason == ReasonQueueFull {
		return fmt.Sprintf("jobs: rejected (%s): %d job(s) queued, limit %d", e.Reason, e.Have, e.Limit)
	}
	return fmt.Sprintf("jobs: rejected (%s)", e.Reason)
}

// RunFunc executes one dispatched job. It must honor ctx: a canceled or
// deadline-expired context should stop launching work and return an error
// wrapping ctx.Err() (the plan.Driver, exec.Engine, and
// livecluster.Cluster context plumbing does exactly that). The returned
// report, if any, is retained on the job keyed by its ID.
type RunFunc func(ctx context.Context) (*obs.Report, error)

// Submission describes one job offered to the service.
type Submission struct {
	// Tenant names the submitting tenant; empty means "default". It labels
	// the job's listings and events.
	Tenant string
	// Name labels the job (workload name) for listings and events.
	Name string
	// Deadline bounds the job's run time; zero means unbounded.
	Deadline time.Duration
	// Run is the work itself.
	Run RunFunc
}

// Info is one job's lifecycle snapshot, the JSON shape of the /jobs
// listing.
type Info struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Name        string    `json:"name,omitempty"`
	State       State     `json:"state"`
	SubmittedAt time.Time `json:"submitted_at"`
	// QueueWaitSec is submission→dispatch; zero until running.
	QueueWaitSec float64 `json:"queue_wait_sec,omitempty"`
	// RunSec is the run duration; zero until terminal.
	RunSec float64 `json:"run_sec,omitempty"`
	// DeadlineSec is the job's deadline (0 = none).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// Err carries the failure/cancellation/rejection message.
	Err string `json:"err,omitempty"`
	// HasReport reports whether a run report is retained for the job
	// (GET /jobs/{id}/report).
	HasReport bool `json:"has_report,omitempty"`
}

// Event is one lifecycle transition on the /jobs watch stream (NDJSON, one
// object per line).
type Event struct {
	Seq    int       `json:"seq"`
	Time   time.Time `json:"time"`
	Job    string    `json:"job"`
	Tenant string    `json:"tenant"`
	Name   string    `json:"name,omitempty"`
	State  State     `json:"state"`
	Err    string    `json:"err,omitempty"`
}

// Config tunes a Service.
type Config struct {
	// MaxQueue bounds how many jobs may wait in the queue (the running job
	// does not count). Defaults to 16.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	return c
}

// record is one job's mutable service-side state, guarded by Service.mu
// (done is closed exactly once, under the lock, when the job turns
// terminal).
type record struct {
	info   Info
	sub    Submission
	report *obs.Report
	// cancel aborts the running job; set when the job is dispatched.
	cancel context.CancelFunc
	done   chan struct{}
}

// Service is a running job service. Create one with New and Close it when
// done; Close cancels the running job and drains the queue (every queued
// job turns canceled).
type Service struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*record // waiting jobs, in arrival order
	records map[string]*record
	order   []*record // submission order, rejected included
	running *record
	seq     int
	closed  bool

	// events is the lifecycle event log behind Subscribe and the /jobs
	// watch stream; appends happen under mu, so it is in transition
	// order.
	events obs.Log[Event]

	dispatcherDone chan struct{}
}

// New starts a service and its dispatcher goroutine.
func New(cfg Config) *Service {
	s := &Service{
		cfg:            cfg.withDefaults(),
		records:        map[string]*record{},
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s
}

// Job is a caller's handle on one submitted job.
type Job struct {
	svc *Service
	rec *record
}

// ID returns the job's service-assigned ID.
func (j *Job) ID() string { return j.rec.info.ID }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.rec.done }

// Wait blocks until the job is terminal and returns its final snapshot.
func (j *Job) Wait() Info {
	<-j.rec.done
	return j.Info()
}

// Info returns the job's current lifecycle snapshot.
func (j *Job) Info() Info {
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	return snapshotLocked(j.rec)
}

func snapshotLocked(rec *record) Info {
	info := rec.info
	info.HasReport = rec.report != nil
	return info
}

// Submit offers one job. It returns a handle when the job was queued, or
// a *ErrRejected when admission control shed it — the rejection is still
// recorded as a terminal job (listed by /jobs) so shed load stays
// observable.
func (s *Service) Submit(sub Submission) (*Job, error) {
	if sub.Run == nil {
		return nil, fmt.Errorf("jobs: submission has no Run function")
	}
	if sub.Tenant == "" {
		sub.Tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rej := s.admitLocked(); rej != nil {
		rec := s.newRecordLocked(sub)
		rec.info.State = StateRejected
		rec.info.Err = rej.Error()
		close(rec.done)
		s.publishLocked(rec)
		return nil, rej
	}
	rec := s.newRecordLocked(sub)
	rec.info.State = StateQueued
	s.queue = append(s.queue, rec)
	s.publishLocked(rec)
	s.cond.Broadcast()
	return &Job{svc: s, rec: rec}, nil
}

// admitLocked rejects a submission to a closed service or a full queue.
func (s *Service) admitLocked() *ErrRejected {
	if s.closed {
		return &ErrRejected{Reason: ReasonClosed}
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		return &ErrRejected{Reason: ReasonQueueFull, Limit: int64(s.cfg.MaxQueue), Have: int64(len(s.queue))}
	}
	return nil
}

func (s *Service) newRecordLocked(sub Submission) *record {
	s.seq++
	rec := &record{
		sub:  sub,
		done: make(chan struct{}),
		info: Info{
			ID:          fmt.Sprintf("j-%04d", s.seq),
			Tenant:      sub.Tenant,
			Name:        sub.Name,
			SubmittedAt: time.Now(),
			DeadlineSec: sub.Deadline.Seconds(),
		},
	}
	s.records[rec.info.ID] = rec
	s.order = append(s.order, rec)
	return rec
}

// publishLocked appends the record's current state to the event log, which
// fans it out to the watchers.
func (s *Service) publishLocked(rec *record) {
	s.events.Append(func(seq int) Event {
		return Event{
			Seq:    seq,
			Time:   time.Now(),
			Job:    rec.info.ID,
			Tenant: rec.info.Tenant,
			Name:   rec.info.Name,
			State:  rec.info.State,
			Err:    rec.info.Err,
		}
	})
}

// Subscribe registers a live tail of the lifecycle event stream
// (obs.Log.Subscribe): history is everything so far, ch carries later
// events, cancel unregisters (safe to call twice).
func (s *Service) Subscribe(buf int) (history []Event, ch <-chan Event, cancel func()) {
	return s.events.Subscribe(buf)
}

// List returns every job the service has seen (rejected included), in
// submission order.
func (s *Service) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, len(s.order))
	for i, rec := range s.order {
		out[i] = snapshotLocked(rec)
	}
	return out
}

// Get returns one job's snapshot.
func (s *Service) Get(id string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[id]
	if !ok {
		return Info{}, false
	}
	return snapshotLocked(rec), true
}

// Report returns the run report retained for a job (ok=false for unknown
// jobs, nil report for jobs that have not produced one).
func (s *Service) Report(id string) (*obs.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[id]
	if !ok {
		return nil, false
	}
	return rec.report, true
}

// Cancel cancels a job: a queued job leaves the queue immediately, a
// running job has its context canceled (the run unwinds cooperatively and
// turns canceled when it returns). Terminal jobs are left alone. Unknown
// IDs return an error.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[id]
	if !ok {
		return fmt.Errorf("jobs: unknown job %q", id)
	}
	switch rec.info.State {
	case StateQueued:
		s.queue = slices.DeleteFunc(s.queue, func(q *record) bool { return q == rec })
		s.finishLocked(rec, StateCanceled, "canceled while queued", nil)
	case StateRunning:
		rec.cancel()
	}
	return nil
}

// finishLocked moves a non-terminal record to a terminal state: event,
// done-channel close.
func (s *Service) finishLocked(rec *record, st State, msg string, report *obs.Report) {
	if rec.info.State.Terminal() {
		return
	}
	rec.info.State = st
	if msg != "" && rec.info.Err == "" {
		rec.info.Err = msg
	}
	if report != nil {
		rec.report = report
	}
	s.publishLocked(rec)
	close(rec.done)
}

// dispatch is the service's single dispatcher goroutine: it runs the queue's
// head to completion, one job at a time, until Close drains the service.
func (s *Service) dispatch() {
	defer close(s.dispatcherDone)
	for {
		rec, ctx := s.next()
		if rec == nil {
			return
		}
		s.runJob(ctx, rec)
	}
}

// next blocks until a job is queued and takes it off the queue already
// running, its context (deadline applied) and cancel func set in the same
// critical section, so Cancel and Close always find a dispatched job's
// cancel func. It returns nil once the service is closed.
func (s *Service) next() (*record, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.closed {
			return nil, nil
		}
		s.cond.Wait()
	}
	rec := s.queue[0]
	s.queue = s.queue[1:]

	var ctx context.Context
	if rec.sub.Deadline > 0 {
		ctx, rec.cancel = context.WithTimeout(context.Background(), rec.sub.Deadline)
	} else {
		ctx, rec.cancel = context.WithCancel(context.Background())
	}
	rec.info.State = StateRunning
	s.running = rec
	rec.info.QueueWaitSec = time.Since(rec.info.SubmittedAt).Seconds()
	s.publishLocked(rec)
	return rec, ctx
}

// runJob executes one dispatched job and classifies the outcome — a
// context-shaped error is a cancellation, anything else a failure.
func (s *Service) runJob(ctx context.Context, rec *record) {
	started := time.Now()
	report, err := rec.sub.Run(ctx)

	runSec := time.Since(started).Seconds()
	s.mu.Lock()
	s.running = nil
	rec.info.RunSec = runSec
	switch {
	case err == nil:
		s.finishLocked(rec, StateDone, "", report)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), ctx.Err() != nil:
		s.finishLocked(rec, StateCanceled, err.Error(), report)
	default:
		s.finishLocked(rec, StateFailed, err.Error(), report)
	}
	rec.cancel() // releases the deadline timer
	s.mu.Unlock()
}

// Close drains the service: further submissions are rejected, every
// queued job turns canceled, the running job (if any) has its context
// canceled, and Close returns once the dispatcher has exited. Safe to
// call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.dispatcherDone
		return
	}
	s.closed = true
	for _, rec := range s.queue {
		s.finishLocked(rec, StateCanceled, "service closed", nil)
	}
	s.queue = nil
	if s.running != nil {
		s.running.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.dispatcherDone
}
