// Package jobs is a bounded FIFO queue of run closures with one
// dispatcher: jobs run one at a time, in the order they arrive.
//
// No path of the system runs through it: wansim runs one job per process,
// and Cluster.RunContext and core.Context.SaveContext are the job API. It
// stays only because perf/'s jobs.dispatch_us_per_job probe drives it;
// ROADMAP 1(b) deletes both.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"wanshuffle/internal/obs"
)

// errRejected is what Submit's error wraps when the queue is at its bound
// or the service is closed.
var errRejected = errors.New("jobs: rejected")

// runFunc executes one dispatched job. It must honor ctx: Close cancels
// the running job's context.
type runFunc func(ctx context.Context) (*obs.Report, error)

// Submission describes one job offered to the service.
type Submission struct {
	// Tenant and Name are read by nothing; perf/'s probe sets them.
	Tenant, Name string
	// Run is the work itself.
	Run runFunc
}

// Config tunes a service.
type Config struct {
	// MaxQueue bounds how many jobs may wait in the queue (the running job
	// does not count). Defaults to 16.
	MaxQueue int
}

// Job is a caller's handle on one submitted job.
type Job struct {
	run  runFunc
	done chan struct{}
}

// Done returns a channel closed when the job has run, or was dropped from
// the queue by Close.
func (j *Job) Done() <-chan struct{} { return j.done }

// service is a running queue and its dispatcher. Create one with New and
// Close it when done.
type service struct {
	limit int // Config.MaxQueue

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*Job // waiting jobs, in arrival order
	// cancel cancels the running job's context; nil between jobs.
	cancel context.CancelFunc
	closed bool

	dispatcherDone chan struct{}
}

// New starts a service and its dispatcher goroutine.
func New(cfg Config) *service {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	s := &service{limit: cfg.MaxQueue, dispatcherDone: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s
}

// Submit queues one job, or returns an error when the queue is at its
// bound or the service is closed.
func (s *service) Submit(sub Submission) (*Job, error) {
	if sub.Run == nil {
		return nil, fmt.Errorf("jobs: submission has no Run function")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: service closed", errRejected)
	}
	if len(s.queue) >= s.limit {
		return nil, fmt.Errorf("%w: %d job(s) queued, limit %d", errRejected, len(s.queue), s.limit)
	}
	j := &Job{run: sub.Run, done: make(chan struct{})}
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return j, nil
}

// dispatch runs the queue's head to completion, one job at a time, until
// Close drains the service.
func (s *service) dispatch() {
	defer close(s.dispatcherDone)
	for {
		j, ctx := s.next()
		if j == nil {
			return
		}
		_, _ = j.run(ctx)
		s.mu.Lock()
		s.cancel()
		s.cancel = nil
		s.mu.Unlock()
		close(j.done)
	}
}

// next blocks until a job is queued and takes it off the queue with its
// context's cancel func set in the same critical section, so Close always
// finds a dispatched job's cancel func. It returns nil once the service is
// closed.
func (s *service) next() (*Job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.closed {
			return nil, nil
		}
		s.cond.Wait()
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	var ctx context.Context
	ctx, s.cancel = context.WithCancel(context.Background())
	return j, ctx
}

// Close drains the service: further submissions are rejected, queued jobs
// are dropped without running (their Done channels close), the running
// job's context is canceled, and Close returns once the dispatcher has
// exited. Safe to call more than once.
func (s *service) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, j := range s.queue {
			close(j.done)
		}
		s.queue = nil
		if s.cancel != nil {
			s.cancel()
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.dispatcherDone
}
