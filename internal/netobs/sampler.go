package netobs

import (
	"strings"
	"sync"
	"time"

	"wanshuffle/internal/obs"
)

// DefaultPrefixes selects the registry series worth a time dimension:
// traffic totals, task/stage progress, link estimates, and liveness
// gauges. Histograms are always skipped (their buckets already summarize
// a distribution; resampling them bloats every tick).
var DefaultPrefixes = []string{
	"bytes_",
	"tasks_total",
	"stages_total",
	"link_",
	"heartbeats_total",
	"worker_heartbeat_age_sec",
	"blockstore_resident_bytes",
}

// SamplerConfig tunes a Sampler.
type SamplerConfig struct {
	// Interval is the sampling period; 0 means DefaultInterval.
	Interval time.Duration
	// Cap bounds the retained sample ring; when full, the oldest sample
	// is dropped (Seq stays monotonic so consumers can see the gap). 0
	// means DefaultCap.
	Cap int
	// Source supplies the metric snapshot each tick; returning nil skips
	// the tick. Usually a registry's Snapshot wrapped in a closure.
	Source func() []obs.MetricPoint
	// Prefixes filters the snapshot by metric-name prefix; nil means
	// DefaultPrefixes. An empty non-nil slice keeps everything.
	Prefixes []string
}

// Defaults for SamplerConfig zero values.
const (
	DefaultInterval = 250 * time.Millisecond
	DefaultCap      = 512
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
	cfg   SamplerConfig
	start time.Time

	mu      sync.Mutex
	samples []Sample
	seq     int

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewSampler builds a sampler with cfg's zero values defaulted. Call
// Start to begin ticking.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	if cfg.Prefixes == nil {
		cfg.Prefixes = DefaultPrefixes
	}
	return &Sampler{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the sampling goroutine. It takes one sample immediately
// so short runs still leave a timeline.
func (s *Sampler) Start() {
	s.start = time.Now()
	go func() {
		defer close(s.done)
		s.tick()
		t := time.NewTicker(s.cfg.Interval)
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
	if s.cfg.Source == nil {
		return
	}
	points := s.cfg.Source()
	if points == nil {
		return
	}
	kept := make([]obs.MetricPoint, 0, len(points))
	for _, p := range points {
		if p.Type == "histogram" || !s.keep(p.Name) {
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
	if len(s.samples) > s.cfg.Cap {
		// Drop oldest; copy so the backing array doesn't pin dropped
		// samples.
		s.samples = append([]Sample(nil), s.samples[len(s.samples)-s.cfg.Cap:]...)
	}
	s.mu.Unlock()
}

func (s *Sampler) keep(name string) bool {
	if len(s.cfg.Prefixes) == 0 {
		return true
	}
	for _, p := range s.cfg.Prefixes {
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
