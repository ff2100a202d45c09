package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
)

// scanSeqs reads NDJSON lines from an /events response until n lines
// arrive, returning each line's seq in order.
func scanSeqs(t *testing.T, body *bufio.Scanner, n int) []int {
	t.Helper()
	var seqs []int
	for len(seqs) < n && body.Scan() {
		var ev struct {
			Seq int `json:"seq"`
		}
		if err := json.Unmarshal(body.Bytes(), &ev); err != nil {
			t.Errorf("bad event line %q: %v", body.Text(), err)
			return seqs
		}
		seqs = append(seqs, ev.Seq)
	}
	return seqs
}

// TestEventsFanoutConcurrentSubscribers runs several /events subscribers
// draining at very different rates while the collector keeps publishing.
// The contract under test: fan-out never blocks or slows the run (the
// publisher must finish promptly no matter how slow a subscriber reads),
// fast subscribers see every event in order, and slow subscribers see a
// gap-free prefix-consistent stream of whatever they did read (per-sub
// overflow drops events, never reorders them).
func TestEventsFanoutConcurrentSubscribers(t *testing.T) {
	c := obs.NewCollector()
	ts := newTestServer(t, Config{Events: func() *obs.Collector { return c }})

	const published = 500
	subscribe := func() (*http.Response, *bufio.Scanner) {
		resp, err := http.Get(ts.URL + "/events")
		if err != nil {
			t.Fatalf("GET /events: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /events: status %d", resp.StatusCode)
		}
		return resp, bufio.NewScanner(resp.Body)
	}

	// Two fast subscribers, connected before anything is published.
	fastA, scanA := subscribe()
	defer fastA.Body.Close()
	fastB, scanB := subscribe()
	defer fastB.Body.Close()

	// Two slow subscribers: they read a handful of lines with long pauses,
	// then hang up mid-stream.
	var slow sync.WaitGroup
	for i := 0; i < 2; i++ {
		resp, scanner := subscribe()
		slow.Add(1)
		go func() {
			defer slow.Done()
			defer resp.Body.Close()
			for read := 0; read < 5 && scanner.Scan(); read++ {
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}

	// The publisher stands in for the run's event loop: if any subscriber
	// could stall it, this send loop would overshoot the deadline.
	start := time.Now()
	for i := 0; i < published; i++ {
		c.OnTask(obs.TaskEvent{Phase: obs.PhaseStarted, StageName: "map", Part: i})
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("publishing %d events took %v: a subscriber stalled the run", published, elapsed)
	}

	// Fast subscribers drain everything: the tail's buffer (1024)
	// exceeds the publish count, so nothing may be dropped for them.
	for name, sc := range map[string]*bufio.Scanner{"fastA": scanA, "fastB": scanB} {
		seqs := scanSeqs(t, sc, published)
		if len(seqs) != published {
			t.Fatalf("%s: got %d events, want %d", name, len(seqs), published)
		}
		for i, seq := range seqs {
			if seq != i+1 {
				t.Fatalf("%s: seqs[%d] = %d, want %d (stream reordered or dropped)", name, i, seq, i+1)
			}
		}
	}
	slow.Wait()
}

// TestEventsLateSubscriberGetsHistory connects a subscriber after the
// publish burst and checks the history replay matches what concurrent
// subscribers saw live: same seq sequence, one code path.
func TestEventsLateSubscriberGetsHistory(t *testing.T) {
	c := obs.NewCollector()
	ts := newTestServer(t, Config{Events: func() *obs.Collector { return c }})
	const published = 50
	for i := 0; i < published; i++ {
		c.OnTask(obs.TaskEvent{Phase: obs.PhaseFinished, StageName: "reduce", Part: i})
	}
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seqs := scanSeqs(t, bufio.NewScanner(resp.Body), published)
	if len(seqs) != published || seqs[0] != 1 || seqs[published-1] != published {
		t.Fatalf("history replay seqs = %v", seqs)
	}
}

// TestTimelineFanoutConcurrentReaders hammers /timeline from several
// goroutines while the sampler keeps ticking against a registry under
// concurrent mutation, until it has ticked twice after its first sample.
// Every response must be well-formed NDJSON with non-decreasing seq; the
// exercise is meaningful mainly under -race.
func TestTimelineFanoutConcurrentReaders(t *testing.T) {
	c := obs.NewCollector()
	sampler := netobs.NewSampler(func() []obs.MetricPoint { return c.Registry().Snapshot() })
	sampler.Start()
	defer sampler.Stop()
	ts := newTestServer(t, Config{Timeline: sampler.Samples})

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				c.OnTask(obs.TaskEvent{Phase: obs.PhaseStarted, StageName: "map", Part: i})
				time.Sleep(50 * time.Microsecond) // the run spans ticks; keep its event log small
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		pause := time.Duration(r) * 3 * time.Millisecond
		go func() {
			defer readers.Done()
			deadline := time.Now().Add(10 * time.Second)
			for len(sampler.Samples()) < 3 && time.Now().Before(deadline) {
				resp, err := http.Get(ts.URL + "/timeline")
				if err != nil {
					t.Errorf("GET /timeline: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET /timeline: status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				sc := bufio.NewScanner(resp.Body)
				last := -1
				for sc.Scan() {
					var s netobs.Sample
					if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
						t.Errorf("bad timeline line %q: %v", sc.Text(), err)
						resp.Body.Close()
						return
					}
					if s.Seq <= last {
						t.Errorf("timeline seq not increasing: %d after %d", s.Seq, last)
					}
					last = s.Seq
				}
				resp.Body.Close()
				time.Sleep(pause)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	// After Stop the ring is frozen but still serves.
	sampler.Stop()
	code, body, hdr := get(t, ts.URL+"/timeline")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("post-stop /timeline: status %d, content type %q", code, hdr.Get("Content-Type"))
	}
	if strings.TrimSpace(body) == "" {
		t.Fatal("post-stop /timeline empty: sampler never recorded a sample")
	}
}

// TestTimelineUnavailable pins the 503-vs-empty contract: no sampler
// wired means 503, a wired sampler with nothing recorded yet serves an
// empty 200 body.
func TestTimelineUnavailable(t *testing.T) {
	ts := newTestServer(t, Config{})
	if code, _, _ := get(t, ts.URL+"/timeline"); code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
	empty := newTestServer(t, Config{Timeline: func() []netobs.Sample { return nil }})
	code, body, _ := get(t, empty.URL+"/timeline")
	if code != http.StatusOK || body != "" {
		t.Fatalf("empty timeline: status %d body %q, want 200 and empty", code, body)
	}
}

// TestLinksEndpoint serves a live estimator's matrix and checks the JSON
// round-trips into the report's network section types.
func TestLinksEndpoint(t *testing.T) {
	est := netobs.NewEstimator(netobs.Config{})
	est.ObserveTransfer("us-east-1", "eu-central-1", 1e6, 1.0)
	est.ObserveRTT("us-east-1", "eu-central-1", 0.09)
	configured := []netobs.ConfiguredLink{{Src: "us-east-1", Dst: "eu-central-1", Bps: 16e6}}
	ts := newTestServer(t, Config{Links: func() *obs.NetworkStats {
		return netobs.ReportSection(est, configured)
	}})

	code, body, hdr := get(t, ts.URL+"/links")
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if got := hdr.Get("Content-Type"); got != "application/json" {
		t.Fatalf("content type = %q", got)
	}
	var ns obs.NetworkStats
	if err := json.Unmarshal([]byte(body), &ns); err != nil {
		t.Fatalf("decoding /links: %v\n%s", err, body)
	}
	if len(ns.Links) != 1 {
		t.Fatalf("links = %+v, want 1 entry", ns.Links)
	}
	l := ns.Links[0]
	if l.Src != "us-east-1" || l.Dst != "eu-central-1" || l.Samples != 1 {
		t.Fatalf("link = %+v", l)
	}
	if l.ThroughputBps != 8e6 || l.ConfiguredBps != 16e6 {
		t.Fatalf("throughput/configured = %v/%v", l.ThroughputBps, l.ConfiguredBps)
	}
	if l.Drift == nil || *l.Drift != 0.5 {
		t.Fatalf("drift = %v, want 0.5", l.Drift)
	}
}

func TestLinksUnavailable(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nil func":   {},
		"nil matrix": {Links: func() *obs.NetworkStats { return nil }},
	} {
		ts := newTestServer(t, cfg)
		if code, _, _ := get(t, ts.URL+"/links"); code != http.StatusServiceUnavailable {
			t.Errorf("%s: status = %d, want 503", name, code)
		}
	}
}
