package telemetry

import (
	"fmt"
	"io"
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
// contract on a real running job: counters scraped from /metrics mid-run
// are strictly increasing across scrapes, /trace serves the spans recorded
// so far, and scraping concurrently with the engine's event loop is
// race-free (this test is the registry's and the span recorder's
// concurrency test — run it with -race).
//
// The job's map function blocks the simulator's event loop at two chosen
// invocations, so "mid-run" is deterministic: scrape 1 happens with the
// first map task in flight, scrape 2 after most map tasks completed but
// before the job finished. Background scrapers hammer /metrics and
// /report the whole time.
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
		Registry: events.Registry,
		Events:   func() *obs.Collector { return events },
		Report: func() *obs.Report {
			return obs.InProgressReport("sim", "wordcount", c.Scheme().String(), events)
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

	total := func(s map[string]float64, prefix string) float64 {
		sum := 0.0
		for k, v := range s {
			if strings.HasPrefix(k, prefix) {
				sum += v
			}
		}
		return sum
	}

	<-reached1
	_, body1, _ := get(t, ts.URL+"/metrics")
	s1 := promSeries(t, body1)
	if total(s1, "tasks_total") < 1 {
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
	close(hold2)

	if err := <-runErr; err != nil {
		t.Fatalf("job failed: %v", err)
	}
	close(stopScrape)
	wg.Wait()
	_, body3, _ := get(t, ts.URL+"/metrics")
	s3 := promSeries(t, body3)

	// Counters never decrease between scrapes, and each later scrape saw
	// strictly more task activity (the event loop ran between them).
	for _, step := range []struct {
		name     string
		from, to map[string]float64
	}{{"scrape1→scrape2", s1, s2}, {"scrape2→final", s2, s3}} {
		for series, v := range step.from {
			if !strings.HasPrefix(series, "tasks_total") && series != "stages_total" {
				continue
			}
			if step.to[series] < v {
				t.Errorf("%s: counter %s decreased: %v -> %v", step.name, series, v, step.to[series])
			}
		}
		if a, b := total(step.from, "tasks_total"), total(step.to, "tasks_total"); b <= a {
			t.Errorf("%s: tasks_total not strictly increasing: %v -> %v", step.name, a, b)
		}
	}
	if s3["stages_total"] < 2 {
		t.Errorf("final stages_total = %v, want >= 2", s3["stages_total"])
	}
}
