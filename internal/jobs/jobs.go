// Package jobs is the multi-tenant job service fronting both execution
// backends: a bounded submission queue, per-tenant weighted-fair
// scheduling, admission control, and the full job lifecycle
// (queued → admitted → running → done/failed/canceled/rejected) with
// cooperative cancellation and per-job deadlines.
//
// The paper observes that "it is common that a Spark cluster is shared by
// multiple jobs" (Sec. IV-E); Exoshuffle and FuxiShuffle push the point
// further — shuffle belongs behind a long-running, adaptive *service*, not
// a one-shot CLI invocation. This package is that service layer: callers
// submit work as run closures (a live-cluster job, a fresh simulator
// context, anything honoring a context.Context), and the service decides
// when — and whether — each one runs.
//
// Scheduling is start-time fair queueing (SFQ) over tenant weights: each
// dispatched job advances its tenant's virtual finish tag by 1/weight, the
// job with the smallest finish tag goes next (ties break on the earlier
// virtual start, then tenant name), and submissions within one tenant stay
// FIFO. A tenant with weight 2 therefore drains twice as fast as a
// weight-1 tenant under contention, and an idle tenant's backlog never
// starves others. Jobs run one at a time: both backends execute a single
// job per cluster (the live Cluster is strictly sequential; the engine
// returns exec.ErrBusy), so the service serializes dispatch and fairness
// is decided entirely by queue order.
//
// Admission control sheds load before it queues: a full queue
// (Config.MaxQueue) or an estimated-bytes footprint past
// Config.MaxQueuedBytes rejects the submission with a typed *ErrRejected,
// recorded as a terminal "rejected" job so the /jobs listing and the
// jobs_rejected_total metric account for every shed submission.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/stats"
)

// State is one point in a job's lifecycle.
type State string

// Lifecycle states. A healthy job passes queued → admitted → running →
// done; rejected is terminal at submission time, canceled and failed are
// the other terminal outcomes.
const (
	StateQueued   State = "queued"
	StateAdmitted State = "admitted"
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

// Rejection reasons carried by ErrRejected and the reason label of
// jobs_rejected_total.
const (
	ReasonQueueFull = "queue_full"
	ReasonMemory    = "memory"
	ReasonClosed    = "closed"
)

// ErrRejected is the typed admission-control failure: the service refused
// to queue the submission. Callers distinguish it from transport or build
// errors with errors.As and retry later (or shed the request upstream).
type ErrRejected struct {
	// Reason is one of the Reason* constants.
	Reason string
	// Limit and Have quantify the exceeded bound: queued jobs for
	// ReasonQueueFull, estimated bytes for ReasonMemory.
	Limit, Have int64
}

// Error implements error.
func (e *ErrRejected) Error() string {
	switch e.Reason {
	case ReasonQueueFull:
		return fmt.Sprintf("jobs: rejected (%s): %d job(s) queued, limit %d", e.Reason, e.Have, e.Limit)
	case ReasonMemory:
		return fmt.Sprintf("jobs: rejected (%s): %d estimated bytes pending, limit %d", e.Reason, e.Have, e.Limit)
	default:
		return fmt.Sprintf("jobs: rejected (%s)", e.Reason)
	}
}

// IsRejected reports whether err is (or wraps) an admission rejection.
func IsRejected(err error) bool {
	var r *ErrRejected
	return errors.As(err, &r)
}

// RunFunc executes one admitted job. It must honor ctx: a canceled or
// deadline-expired context should stop launching work and return an error
// wrapping ctx.Err() (the plan.Driver, exec.Engine, and
// livecluster.Cluster context plumbing does exactly that). The returned
// report, if any, is retained on the job keyed by its ID.
type RunFunc func(ctx context.Context) (*obs.Report, error)

// Submission describes one job offered to the service.
type Submission struct {
	// Tenant names the submitting tenant; empty means "default".
	Tenant string
	// Name labels the job (workload name) for listings and events.
	Name string
	// EstBytes is the submission's estimated memory footprint, counted
	// against Config.MaxQueuedBytes while the job is queued or running.
	// Zero means unknown (admitted on queue depth alone).
	EstBytes int64
	// Deadline bounds the job's run time; zero falls back to
	// Config.DefaultDeadline (zero there too means unbounded).
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
	EstBytes    int64     `json:"est_bytes,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	// QueueWaitSec is submission→admission; zero until admitted.
	QueueWaitSec float64 `json:"queue_wait_sec,omitempty"`
	// RunSec is the run duration; zero until terminal.
	RunSec float64 `json:"run_sec,omitempty"`
	// DeadlineSec is the effective per-job deadline (0 = none).
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
	// Weights maps tenant name → scheduling weight; tenants not listed, or
	// listed with a non-positive weight, get defaultWeight.
	Weights map[string]float64
	// MaxQueue bounds how many jobs may wait in the queue (the running job
	// does not count). Defaults to 16.
	MaxQueue int
	// MaxQueuedBytes bounds the summed EstBytes of queued plus running
	// jobs; 0 disables the bound.
	MaxQueuedBytes int64
	// DefaultDeadline applies to submissions without their own; 0 leaves
	// them unbounded.
	DefaultDeadline time.Duration
	// Logger receives structured service logs; nil discards.
	Logger *slog.Logger
}

// defaultWeight is the scheduling weight of a tenant Config.Weights does not
// list.
const defaultWeight = 1

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
	// vstart/vfinish are the SFQ virtual tags stamped at dispatch.
	vstart, vfinish float64
	// cancel aborts the running job; set for the duration of the run.
	cancel context.CancelFunc
	done   chan struct{}
}

// tenantQueue is one tenant's FIFO backlog plus its SFQ finish tag.
type tenantQueue struct {
	weight float64
	queue  []*record
	finish float64
}

// Service is a running multi-tenant job service. Create one with New and
// Close it when done; Close cancels the in-flight job and drains the
// queue (every queued job turns canceled).
type Service struct {
	cfg Config
	reg *obs.Registry
	log *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	records map[string]*record
	order   []*record // submission order, rejected included
	// vtime is the SFQ virtual clock: the virtual start tag of the job
	// most recently entering service.
	vtime       float64
	queued      int
	pendingByte int64 // EstBytes of queued + running jobs
	running     *record
	seq         int
	closed      bool

	// events is the lifecycle event log behind Events, Subscribe and the
	// /jobs watch stream; appends happen under mu, so it is in transition
	// order.
	events obs.Log[Event]

	dispatcherDone chan struct{}
}

// New starts a service and its dispatcher goroutine.
func New(cfg Config) *Service {
	s := &Service{
		cfg:            cfg.withDefaults(),
		reg:            obs.NewRegistry(),
		log:            obs.LoggerOr(cfg.Logger),
		tenants:        map[string]*tenantQueue{},
		records:        map[string]*record{},
		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s
}

// Registry exposes the service's jobs_* metrics registry.
func (s *Service) Registry() *obs.Registry { return s.reg }

// histogram edge sets: queue waits are short (sub-minute) and run times a
// bit longer; both get fixed linear buckets so text exposition stays
// bounded.
var (
	queueWaitEdges = stats.LinearEdges(0, 30, 10)
	runSecEdges    = stats.LinearEdges(0, 120, 12)
)

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

// Report returns the job's retained run report (nil until the run
// produced one).
func (j *Job) Report() *obs.Report {
	j.svc.mu.Lock()
	defer j.svc.mu.Unlock()
	return j.rec.report
}

// Cancel cancels the job (see Service.Cancel).
func (j *Job) Cancel() { j.svc.Cancel(j.rec.info.ID) }

func snapshotLocked(rec *record) Info {
	info := rec.info
	info.HasReport = rec.report != nil
	return info
}

// Submit offers one job. It returns a handle when the job was queued, or
// a *ErrRejected when admission control shed it — the rejection is still
// recorded as a terminal job (listed by /jobs, counted by
// jobs_rejected_total) so shed load stays observable.
func (s *Service) Submit(sub Submission) (*Job, error) {
	if sub.Run == nil {
		return nil, fmt.Errorf("jobs: submission has no Run function")
	}
	if sub.Tenant == "" {
		sub.Tenant = "default"
	}
	if sub.Deadline <= 0 {
		sub.Deadline = s.cfg.DefaultDeadline
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.Counter("jobs_submitted_total", obs.Labels{"tenant": sub.Tenant}).Inc()
	if rej := s.admitLocked(sub); rej != nil {
		rec := s.newRecordLocked(sub)
		rec.info.State = StateRejected
		rec.info.Err = rej.Error()
		close(rec.done)
		s.reg.Counter("jobs_rejected_total", obs.Labels{"tenant": sub.Tenant, "reason": rej.Reason}).Inc()
		s.publishLocked(rec)
		s.log.Warn("jobs: submission rejected", "job", rec.info.ID, "tenant", sub.Tenant, "reason", rej.Reason)
		return nil, rej
	}
	rec := s.newRecordLocked(sub)
	rec.info.State = StateQueued
	t := s.tenantLocked(sub.Tenant)
	t.queue = append(t.queue, rec)
	s.queued++
	s.pendingByte += sub.EstBytes
	s.reg.Gauge("jobs_queue_depth", nil).Set(float64(s.queued))
	s.publishLocked(rec)
	s.log.Info("jobs: queued", "job", rec.info.ID, "tenant", sub.Tenant, "name", sub.Name, "depth", s.queued)
	s.cond.Broadcast()
	return &Job{svc: s, rec: rec}, nil
}

// admitLocked applies the admission bounds to one submission.
func (s *Service) admitLocked(sub Submission) *ErrRejected {
	if s.closed {
		return &ErrRejected{Reason: ReasonClosed}
	}
	if s.queued >= s.cfg.MaxQueue {
		return &ErrRejected{Reason: ReasonQueueFull, Limit: int64(s.cfg.MaxQueue), Have: int64(s.queued)}
	}
	if s.cfg.MaxQueuedBytes > 0 && s.pendingByte+sub.EstBytes > s.cfg.MaxQueuedBytes {
		return &ErrRejected{Reason: ReasonMemory, Limit: s.cfg.MaxQueuedBytes, Have: s.pendingByte + sub.EstBytes}
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
			EstBytes:    sub.EstBytes,
			SubmittedAt: time.Now(),
			DeadlineSec: sub.Deadline.Seconds(),
		},
	}
	s.records[rec.info.ID] = rec
	s.order = append(s.order, rec)
	return rec
}

func (s *Service) tenantLocked(name string) *tenantQueue {
	t, ok := s.tenants[name]
	if !ok {
		w := s.cfg.Weights[name]
		if w <= 0 {
			w = defaultWeight
		}
		t = &tenantQueue{weight: w}
		s.tenants[name] = t
	}
	return t
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

// Events returns a copy of the lifecycle event log in arrival order.
func (s *Service) Events() []Event { return s.events.Snapshot() }

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

// QueueDepth returns the number of queued (not yet dispatched) jobs.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
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
		t := s.tenants[rec.info.Tenant]
		for i, q := range t.queue {
			if q == rec {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
		s.queued--
		s.pendingByte -= rec.sub.EstBytes
		s.reg.Gauge("jobs_queue_depth", nil).Set(float64(s.queued))
		s.finishLocked(rec, StateCanceled, "canceled while queued", nil)
	case StateAdmitted:
		// Dispatched but not yet running: mark terminal; runJob notices
		// before invoking the run function.
		s.finishLocked(rec, StateCanceled, "canceled before start", nil)
	case StateRunning:
		if rec.cancel != nil {
			rec.cancel()
		}
	}
	return nil
}

// finishLocked moves a non-terminal record to a terminal state: metrics,
// event, done-channel close, pending-bytes release for jobs that were
// dispatched (queued jobs release in Cancel, which owns the queue
// bookkeeping).
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
	switch st {
	case StateDone:
		s.reg.Counter("jobs_done_total", obs.Labels{"tenant": rec.info.Tenant}).Inc()
	case StateFailed:
		s.reg.Counter("jobs_failed_total", obs.Labels{"tenant": rec.info.Tenant}).Inc()
	case StateCanceled:
		s.reg.Counter("jobs_canceled_total", obs.Labels{"tenant": rec.info.Tenant}).Inc()
	}
	s.publishLocked(rec)
	close(rec.done)
}

// dispatch is the service's single scheduler goroutine: it picks the next
// job under start-time fair queueing and runs it to completion, one at a
// time, until Close drains the service.
func (s *Service) dispatch() {
	defer close(s.dispatcherDone)
	for {
		rec := s.next()
		if rec == nil {
			return
		}
		s.runJob(rec)
	}
}

// next blocks until a job is dispatchable (returning it admitted) or the
// service is closed (returning nil).
func (s *Service) next() *record {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if rec := s.pickLocked(); rec != nil {
			return rec
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// pickLocked implements SFQ dispatch: among tenant queue heads, compute
// virtual start S = max(vtime, tenant finish tag) and finish
// F = S + 1/weight; take the smallest F (ties: smaller S, then tenant
// name), advance the tenant tag to F and the virtual clock to S. Within a
// tenant the queue is FIFO, so one tenant can never reorder its own jobs.
func (s *Service) pickLocked() *record {
	var (
		best       *record
		bestTenant *tenantQueue
		bestName   string
		bestS      float64
		bestF      float64
	)
	for name, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		start := t.finish
		if s.vtime > start {
			start = s.vtime
		}
		finish := start + 1/t.weight
		better := best == nil || finish < bestF ||
			(finish == bestF && (start < bestS || (start == bestS && name < bestName)))
		if better {
			best, bestTenant, bestName, bestS, bestF = t.queue[0], t, name, start, finish
		}
	}
	if best == nil {
		return nil
	}
	bestTenant.queue = bestTenant.queue[1:]
	bestTenant.finish = bestF
	s.vtime = bestS
	best.vstart, best.vfinish = bestS, bestF
	s.queued--
	s.reg.Gauge("jobs_queue_depth", nil).Set(float64(s.queued))
	best.info.State = StateAdmitted
	wait := time.Since(best.info.SubmittedAt).Seconds()
	best.info.QueueWaitSec = wait
	s.reg.Counter("jobs_admitted_total", obs.Labels{"tenant": best.info.Tenant}).Inc()
	s.reg.Histogram("jobs_queue_wait_sec", queueWaitEdges, nil).Observe(wait)
	s.publishLocked(best)
	s.log.Info("jobs: admitted", "job", best.info.ID, "tenant", best.info.Tenant,
		"wait_sec", wait, "vfinish", bestF)
	return best
}

// runJob executes one admitted job: build its context (deadline applied),
// invoke the run function, and classify the outcome — a context-shaped
// error is a cancellation, anything else a failure.
func (s *Service) runJob(rec *record) {
	ctx := context.Background()
	var cancel context.CancelFunc
	if rec.sub.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, rec.sub.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	s.mu.Lock()
	if rec.info.State.Terminal() {
		// Canceled in the dispatch→run window.
		s.pendingByte -= rec.sub.EstBytes
		s.mu.Unlock()
		return
	}
	rec.cancel = cancel
	rec.info.State = StateRunning
	started := time.Now()
	s.running = rec
	s.publishLocked(rec)
	s.mu.Unlock()

	report, err := rec.sub.Run(ctx)

	runSec := time.Since(started).Seconds()
	s.mu.Lock()
	rec.cancel = nil
	s.running = nil
	s.pendingByte -= rec.sub.EstBytes
	rec.info.RunSec = runSec
	s.reg.Histogram("jobs_run_sec", runSecEdges, nil).Observe(runSec)
	switch {
	case err == nil:
		s.finishLocked(rec, StateDone, "", report)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), ctx.Err() != nil:
		s.finishLocked(rec, StateCanceled, err.Error(), report)
	default:
		s.finishLocked(rec, StateFailed, err.Error(), report)
	}
	state := rec.info.State
	s.mu.Unlock()
	s.log.Info("jobs: finished", "job", rec.info.ID, "tenant", rec.info.Tenant,
		"state", string(state), "run_sec", runSec, "err", rec.info.Err)
}

// Close drains the service: no further submissions are admitted, every
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
	for _, t := range s.tenants {
		for _, rec := range t.queue {
			s.queued--
			s.pendingByte -= rec.sub.EstBytes
			s.finishLocked(rec, StateCanceled, "service closed", nil)
		}
		t.queue = nil
	}
	s.reg.Gauge("jobs_queue_depth", nil).Set(float64(s.queued))
	if s.running != nil && s.running.cancel != nil {
		s.running.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.dispatcherDone
}
