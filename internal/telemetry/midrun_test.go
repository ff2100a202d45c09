package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
)

// TestScrapeMidRunStrictlyIncreasing pins the telemetry plane's core
// contract on a real running job: the report gauges scraped from /metrics
// mid-run never go back, task attempts strictly increase across scrapes,
// /metrics and /report read at the same instant agree, /trace serves the
// spans recorded so far, and scraping concurrently with the engine's event
// loop is race-free (this test is the collector's, the span recorder's and
// the link estimator's concurrency test — run it with -race).
//
// The job's map function blocks the simulator's event loop at two chosen
// invocations, so "mid-run" is deterministic: scrape 1 happens with the
// first map task in flight, scrape 2 after every map task completed but
// before the job finished; by then /report's network section has measured
// the shuffle's cross-DC flows. Background scrapers hammer /metrics,
// /report (link matrix included) and /trace the whole time.
func TestScrapeMidRunStrictlyIncreasing(t *testing.T) {
	c := core.NewContext(core.Config{Seed: 1, Exec: exec.Config{Trace: true}})
	var recs []rdd.Pair
	for i := 0; i < 200; i++ {
		recs = append(recs, rdd.KV(fmt.Sprintf("l%d", i), fmt.Sprintf("w%d w%d", i%7, i%13)))
	}
	in := c.DistributeRecords("text", recs, 8, 80e6)

	var mapCalls, tagCalls atomic.Int64
	hold1, reached1 := make(chan struct{}), make(chan struct{})
	hold2, reached2 := make(chan struct{}), make(chan struct{})
	// Gate 1 pauses the event loop inside the first map-task evaluation;
	// gate 2 pauses it inside the first reduce-task evaluation, which the
	// engine only reaches after every map task reported finished.
	words := in.FlatMap("words", func(p rdd.Pair) []rdd.Pair {
		if mapCalls.Add(1) == 1 {
			close(reached1)
			<-hold1
		}
		var out []rdd.Pair
		for _, w := range strings.Fields(p.Value.(string)) {
			out = append(out, rdd.KV(w, 1))
		}
		return out
	})
	counts := words.ReduceByKey("counts", 8, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })
	job := counts.Map("tagged", func(p rdd.Pair) rdd.Pair {
		if tagCalls.Add(1) == 1 {
			close(reached2)
			<-hold2
		}
		return p
	})

	events := c.Engine().Events
	ts := httptest.NewServer(Handler(Config{
		Events: func() *obs.Collector { return events },
		// The snapshot wansim serves: the link matrix is read while the
		// event loop feeds the estimator.
		Report: func() *obs.Report {
			rep := obs.InProgressReport("sim", "wordcount", c.Scheme().String(), events)
			rep.Network = c.Engine().NetworkStats()
			return rep
		},
		Trace: c.Engine().Tracer.Spans,
	}))
	defer ts.Close()

	runErr := make(chan error, 1)
	go func() {
		_, err := c.Save(job)
		runErr <- err
	}()

	// Background scrapers exercise concurrent snapshots for -race.
	stopScrape := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
					for _, path := range []string{"/metrics", "/report", "/trace"} {
						if resp, err := http.Get(ts.URL + path); err == nil {
							_, _ = io.Copy(io.Discard, resp.Body)
							_ = resp.Body.Close()
						}
					}
				}
			}
		}()
	}

	<-reached1
	_, body1, _ := get(t, ts.URL+"/metrics")
	s1 := promSeries(t, body1)
	if s1["report_task_attempts"] < 1 {
		t.Fatalf("scrape 1 shows no task activity:\n%s", body1)
	}
	close(hold1)

	<-reached2
	_, body2, _ := get(t, ts.URL+"/metrics")
	s2 := promSeries(t, body2)
	// Every map task has finished by now and the job has not: the spans
	// they recorded are on /trace mid-run.
	if status, spans, _ := get(t, ts.URL+"/trace"); status != http.StatusOK || !strings.Contains(spans, `"kind":"map"`) {
		t.Errorf("mid-run /trace = %d, want the finished map tasks' spans:\n%s", status, spans)
	}
	// The map stage's shuffle crossed DCs, so /report measures a pair.
	_, body, _ := get(t, ts.URL+"/report")
	mid, err := obs.DecodeReport(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !measuredPair(mid.Network) {
		t.Errorf("mid-run /report network section has no measured pair: %+v", mid.Network)
	}
	// The event loop is held, so the two endpoints read one instant.
	for _, l := range mid.Network.Links {
		series := fmt.Sprintf(`report_link_samples{dst=%q,src=%q}`, l.Dst, l.Src)
		if got, ok := s2[series]; !ok || got != float64(l.Samples) {
			t.Errorf("/metrics %s = %v (present %t), /report says %d samples", series, got, ok, l.Samples)
		}
	}
	close(hold2)

	if err := <-runErr; err != nil {
		t.Fatalf("job failed: %v", err)
	}
	close(stopScrape)
	wg.Wait()
	_, body3, _ := get(t, ts.URL+"/metrics")
	s3 := promSeries(t, body3)

	// Task attempts and completed stages never go back, and each later
	// scrape saw one of them move (the event loop ran between them).
	for _, step := range []struct {
		name     string
		from, to map[string]float64
	}{{"scrape1→scrape2", s1, s2}, {"scrape2→final", s2, s3}} {
		moved := false
		for _, gauge := range []string{"report_task_attempts", "report_stages_done"} {
			a, b := step.from[gauge], step.to[gauge]
			if b < a {
				t.Errorf("%s: %s decreased: %v -> %v", step.name, gauge, a, b)
			}
			moved = moved || b > a
		}
		if !moved {
			t.Errorf("%s: neither task attempts nor completed stages moved", step.name)
		}
	}
	if s3["report_stages_done"] < 2 {
		t.Errorf("final report_stages_done = %v, want >= 2", s3["report_stages_done"])
	}
}

// measuredPair reports whether a network section holds a pair with
// transfer samples and a finite throughput.
func measuredPair(n *obs.NetworkStats) bool {
	if n == nil {
		return false
	}
	for _, l := range n.Links {
		if l.Samples > 0 && l.ThroughputBps > 0 && !math.IsInf(l.ThroughputBps, 0) {
			return true
		}
	}
	return false
}
