package netobs

import (
	"strings"
	"sync"
	"time"

	"wanshuffle/internal/obs"
)

// DefaultPrefixes selects the registry series worth a time dimension:
// traffic totals, task/stage progress, link estimates, heartbeat merges and
// resident block-store bytes. Histograms are always skipped (their buckets
// already summarize a distribution; resampling them bloats every tick).
var DefaultPrefixes = []string{
	"bytes_",
	"tasks_total",
	"stages_total",
	"link_",
	"heartbeats_total",
	"blockstore_resident_bytes",
}

// The timeline samples every sampleInterval and keeps the newest sampleCap
// samples: two minutes of history at 250 ms.
const (
	sampleInterval = 250 * time.Millisecond
	sampleCap      = 512
)

// Sample is one timestamped slice of the metrics registry.
type Sample struct {
	// Seq numbers samples from 0; gaps never appear in Seq itself, but
	// the ring drops oldest samples first, so the lowest retained Seq
	// rises once the cap is hit.
	Seq int `json:"seq"`
	// TimeSec is seconds since the sampler started.
	TimeSec float64           `json:"time_sec"`
	Points  []obs.MetricPoint `json:"points"`
}

// Sampler periodically snapshots selected registry series into a bounded
// ring, turning the point-in-time /metrics scrape into a short
// time-series a client can fetch after the fact (GET /timeline).
type Sampler struct {
	// source supplies the metric snapshot each tick; a nil source, or a
	// nil snapshot, skips the tick.
	source func() []obs.MetricPoint
	start  time.Time

	mu      sync.Mutex
	samples []Sample
	seq     int

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewSampler builds a sampler over source, usually a registry's Snapshot
// wrapped in a closure. Call Start to begin ticking.
func NewSampler(source func() []obs.MetricPoint) *Sampler {
	return &Sampler{
		source: source,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the sampling goroutine. It takes one sample immediately
// so short runs still leave a timeline.
func (s *Sampler) Start() {
	s.start = time.Now()
	go func() {
		defer close(s.done)
		s.tick()
		t := time.NewTicker(sampleInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.tick()
			}
		}
	}()
}

// Stop takes one final sample and halts the goroutine. Safe to call more
// than once, and on a nil sampler (telemetry disabled).
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.tick()
	})
}

func (s *Sampler) tick() {
	if s.source == nil {
		return
	}
	points := s.source()
	if points == nil {
		return
	}
	kept := make([]obs.MetricPoint, 0, len(points))
	for _, p := range points {
		if p.Type == "histogram" || !keep(p.Name) {
			continue
		}
		kept = append(kept, p)
	}
	s.mu.Lock()
	s.samples = append(s.samples, Sample{
		Seq:     s.seq,
		TimeSec: time.Since(s.start).Seconds(),
		Points:  kept,
	})
	s.seq++
	if len(s.samples) > sampleCap {
		// Drop oldest; copy so the backing array doesn't pin dropped
		// samples.
		s.samples = append([]Sample(nil), s.samples[len(s.samples)-sampleCap:]...)
	}
	s.mu.Unlock()
}

// keep reports whether a series is one DefaultPrefixes selects.
func keep(name string) bool {
	for _, p := range DefaultPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Samples snapshots the retained ring, oldest first.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}
