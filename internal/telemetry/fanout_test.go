package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

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
