// Package telemetry is the live observability plane: an HTTP server that
// exposes a point-in-time canonical run-report snapshot, the same report
// in Prometheus text exposition format, a streaming NDJSON tail of the
// task-lifecycle event log, the causal trace spans, and the Go runtime's
// pprof profiles — the monitoring counterpart to internal/obs's
// post-mortem report. Each run fact is
// recorded once, in the report: /metrics renders the report /report
// serves, so the two cannot disagree. Both backends serve through it: the
// simulator scrapes its engine's collector while the event loop runs, and
// the live cluster snapshots its running job's Stats, which every exchange
// writes as it happens.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

// Config wires the server's endpoints to a run's observability state.
// Fields are functions so callers can swap the backing run (the live
// cluster creates a fresh Stats per job); a function returning nil makes
// its endpoint respond 503 until state exists.
type Config struct {
	// Registry holds counters GET /metrics serves after the report's
	// gauges. No run of the system wires it; it stays because perf/'s
	// scrape probe does (ROADMAP 1(b)).
	Registry func() *obs.Registry
	// Report backs GET /report: a point-in-time run-report snapshot
	// (its network section is the link estimate matrix) while the job
	// runs, and the exact final report once it finished. GET /metrics
	// renders the same report (obs.ReportPoints).
	Report func() *obs.Report
	// Events backs GET /events, the NDJSON task-lifecycle stream.
	Events func() *obs.Collector
	// Trace backs GET /trace: the run's causal spans so far, one JSON
	// object per line, mid-run on both backends (the recorder locks).
	Trace func() []trace.Span
}

// Handler builds the telemetry plane's HTTP handler: /metrics, /report,
// /events, /trace, /debug/pprof/, and a plain-text index at / listing the
// ones cfg wires.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// An endpoint is listed only when its source is wired: one that is
		// not would answer 503 for the life of the server.
		list := func(wired bool, lines string) {
			if wired {
				fmt.Fprint(w, lines)
			}
		}
		fmt.Fprint(w, "wanshuffle telemetry\n\n")
		list(cfg.Registry != nil || cfg.Report != nil, "GET /metrics      Prometheus text exposition of the run report\n")
		list(cfg.Report != nil, "GET /report       point-in-time wanshuffle/run-report/v1 snapshot (JSON)\n")
		list(cfg.Events != nil, "GET /events       task-lifecycle event stream (NDJSON, streams until closed)\n")
		list(cfg.Trace != nil, "GET /trace        causal trace spans recorded so far (NDJSON)\n")
		fmt.Fprint(w, "GET /debug/pprof/ Go runtime profiles\n")
	})

	// view mounts one read-only view of the run at path. source returns what
	// writes the state as it is now, or nil while there is none: the answer
	// is then a 503 saying what is missing.
	view := func(path, missing, contentType string, source func() func(io.Writer) error) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			write := source()
			if write == nil {
				http.Error(w, missing, http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", contentType)
			_ = write(w) // a write error means the client went away: nobody to tell
		})
	}
	view("/metrics", "no run report or metrics registry yet", obs.PromContentType, func() func(io.Writer) error {
		rep, reg := call(cfg.Report), call(cfg.Registry)
		if rep == nil && reg == nil {
			return nil
		}
		return func(w io.Writer) error { return obs.WriteProm(w, append(obs.ReportPoints(rep), reg.Snapshot()...)) }
	})
	view("/report", "no run report yet", "application/json", func() func(io.Writer) error {
		if rep := call(cfg.Report); rep != nil {
			return rep.WriteJSON
		}
		return nil
	})
	view("/trace", "no trace spans yet", "application/x-ndjson", func() func(io.Writer) error {
		if spans := call(cfg.Trace); spans != nil {
			return ndjson(spans)
		}
		return nil
	})

	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		c := call(cfg.Events)
		if c == nil {
			http.Error(w, "no event collector yet", http.StatusServiceUnavailable)
			return
		}
		tail(w, r, c)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// call returns what an endpoint's source says, the zero value when the source
// was never wired.
func call[T any](source func() T) (v T) {
	if source != nil {
		v = source()
	}
	return v
}

// ndjson writes items one JSON object per line.
func ndjson[T any](items []T) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, it := range items {
			if err := enc.Encode(it); err != nil {
				return err
			}
		}
		return nil
	}
}

// tail streams c's event log as NDJSON, one event per line: the history the
// subscription starts with, then live events until the client disconnects
// or the subscription is canceled.
func tail(w http.ResponseWriter, r *http.Request, c *obs.Collector) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A subscriber that falls this many events behind starts losing them.
	history, ch, cancel := c.Subscribe(1024)
	defer cancel()
	for _, ev := range history {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			// Flush once nothing else is queued, so bursts don't flush per
			// event.
			if len(ch) == 0 && flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// Server is a running telemetry endpoint. Close it when the process is
// done serving (after any linger the caller wants).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (host:port; :0 picks a free port) and serves the
// telemetry plane in a background goroutine.
func Start(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second}
	s := &Server{ln: ln, srv: srv}
	go func() {
		_ = srv.Serve(ln)
	}()
	return s, nil
}

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Close stops the listener and severs open connections (including /events
// streams).
func (s *Server) Close() error {
	return s.srv.Close()
}
