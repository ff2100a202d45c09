package netobs

import (
	"strings"
	"testing"
	"time"

	"wanshuffle/internal/obs"
)

func registrySource(reg *obs.Registry) func() []obs.MetricPoint {
	return func() []obs.MetricPoint { return reg.Snapshot() }
}

func TestSamplerFiltersAndStamps(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("bytes_wire_total", nil).Add(42)
	reg.Counter("push_chunks_total", nil).Add(7) // outside default prefixes
	reg.Gauge("link_throughput_bps", obs.Labels{"src": "a", "dst": "b"}).Set(8e6)
	reg.Histogram("task_duration_sec", []float64{1, 2}, nil).Observe(0.5)

	s := NewSampler(registrySource(reg))
	s.tick()
	samples := s.Samples()
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	names := map[string]bool{}
	for _, p := range samples[0].Points {
		names[p.Name] = true
		if p.Type == "histogram" {
			t.Fatalf("histogram %s leaked into the timeline", p.Name)
		}
	}
	if !names["bytes_wire_total"] || !names["link_throughput_bps"] {
		t.Fatalf("expected series missing: %v", names)
	}
	if names["push_chunks_total"] || names["task_duration_sec"] {
		t.Fatalf("filtered series leaked: %v", names)
	}
	if samples[0].Seq != 0 {
		t.Fatalf("first seq = %d, want 0", samples[0].Seq)
	}
}

func TestSamplerCapDropsOldest(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("bytes_wire_total", nil).Add(1)
	s := NewSampler(registrySource(reg))
	const ticks = sampleCap + 7
	for i := 0; i < ticks; i++ {
		s.tick()
	}
	samples := s.Samples()
	if len(samples) != sampleCap {
		t.Fatalf("retained = %d, want cap %d", len(samples), sampleCap)
	}
	// Seq stays monotonic across the drop, so consumers can see the gap.
	if first, last := samples[0].Seq, samples[sampleCap-1].Seq; first != 7 || last != ticks-1 {
		t.Fatalf("retained seqs = %d..%d, want 7..%d", first, last, ticks-1)
	}
}

// TestSamplerStartStop samples at Start, once per interval and at Stop, and
// not after.
func TestSamplerStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("bytes_wire_total", nil).Add(1)
	s := NewSampler(registrySource(reg))
	s.Start()
	deadline := time.Now().Add(10 * sampleInterval)
	for len(s.Samples()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	n := len(s.Samples())
	if n < 3 {
		t.Fatalf("samples after start, one interval and stop = %d, want >= 3", n)
	}
	time.Sleep(sampleInterval + 50*time.Millisecond)
	if got := len(s.Samples()); got != n {
		t.Fatalf("sampler still ticking after Stop: %d -> %d", n, got)
	}
	// TimeSec must be non-decreasing.
	prev := -1.0
	for _, smp := range s.Samples() {
		if smp.TimeSec < prev {
			t.Fatalf("time went backwards: %v after %v", smp.TimeSec, prev)
		}
		prev = smp.TimeSec
	}
}

func TestSamplerNilSource(t *testing.T) {
	s := NewSampler(nil)
	s.tick()
	if got := s.Samples(); len(got) != 0 {
		t.Fatalf("nil source produced samples: %+v", got)
	}
	var nilS *Sampler
	if got := nilS.Samples(); got != nil {
		t.Fatalf("nil sampler samples = %+v", got)
	}
}

// TestDefaultPrefixesMatchCatalogue keeps the timeline's filter from
// drifting behind the metrics the repo emits: a prefix that selects no
// catalogued metric samples nothing (as "clock_" did after its gauges
// went).
func TestDefaultPrefixesMatchCatalogue(t *testing.T) {
	for _, prefix := range DefaultPrefixes {
		matched := false
		for _, m := range obs.Catalogue {
			if strings.HasPrefix(m.Name, prefix) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("prefix %q matches no metric in obs.Catalogue", prefix)
		}
	}
}
