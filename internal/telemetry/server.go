// Package telemetry is the live observability plane: an HTTP server that
// exposes a running job's metrics registry in Prometheus text exposition
// format, a point-in-time canonical run-report snapshot, a streaming
// NDJSON tail of the task-lifecycle event log, and the Go runtime's pprof
// profiles — the monitoring counterpart to internal/obs's post-mortem
// report. Both backends serve through it: the simulator scrapes its
// engine's collector while the event loop runs, and the live cluster's
// heartbeat-fed Stats snapshot mid-run.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

// Config wires the server's endpoints to a run's observability state.
// Fields are functions so callers can swap the backing run (the live
// cluster creates a fresh Stats per job); a function returning nil makes
// its endpoint respond 503 until state exists.
type Config struct {
	// Registry backs GET /metrics.
	Registry func() *obs.Registry
	// Report backs GET /report: a point-in-time run-report snapshot
	// while the job runs, and the exact final report once it finished.
	Report func() *obs.Report
	// Events backs GET /events, the NDJSON task-lifecycle stream.
	Events func() *obs.Collector
	// Trace backs GET /trace: the run's causal spans so far, one JSON
	// object per line, mid-run on both backends (the recorder locks).
	Trace func() []trace.Span
	// Links backs GET /links: the current link estimate matrix (measured
	// per-site-pair throughput and RTT, merged with any configured
	// topology's rates and drift), as JSON.
	Links func() *obs.NetworkStats
	// Timeline backs GET /timeline: the metrics time-series ring sampled
	// by a netobs.Sampler, one NDJSON sample per line — the time dimension
	// /metrics scrapes lack.
	Timeline func() []netobs.Sample
	// Jobs, when non-nil, mounts the job service's HTTP surface under
	// /jobs and /jobs/ (list, submit, per-job snapshot/report/cancel,
	// lifecycle watch stream). Serve mode wires jobs.NewHandler here.
	Jobs http.Handler
	// Logger receives request logs at debug level; nil discards.
	Logger *slog.Logger
}

// Handler builds the telemetry plane's HTTP handler: /metrics, /report,
// /events, /trace, /links, /timeline, /debug/pprof/, and a plain-text
// index at /.
func Handler(cfg Config) http.Handler {
	log := obs.LoggerOr(cfg.Logger)
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "wanshuffle telemetry\n\n"+
			"GET /metrics      Prometheus text exposition of the run's registry\n"+
			"GET /report       point-in-time wanshuffle/run-report/v1 snapshot (JSON)\n"+
			"GET /events       task-lifecycle event stream (NDJSON, streams until closed)\n"+
			"GET /trace        causal trace spans recorded so far (NDJSON)\n"+
			"GET /links        link estimate matrix: per-site-pair throughput/RTT + drift (JSON)\n"+
			"GET /timeline     sampled metrics time-series ring (NDJSON, one sample/line)\n"+
			"GET /debug/pprof/ Go runtime profiles\n")
		if cfg.Jobs != nil {
			fmt.Fprint(w, ""+
				"GET /jobs         job listing (JSON); ?watch=1 streams lifecycle events (NDJSON)\n"+
				"POST /jobs        submit a named workload to the job service\n"+
				"GET /jobs/{id}    one job's lifecycle snapshot; /{id}/report its run report\n"+
				"POST /jobs/{id}/cancel cancel a queued or running job\n")
		}
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
			if err := write(w); err != nil {
				log.Debug("telemetry: "+path+" write failed", "err", err)
			}
		})
	}
	view("/metrics", "no metrics registry yet", obs.PromContentType, func() func(io.Writer) error {
		if reg := call(cfg.Registry); reg != nil {
			return reg.WriteProm
		}
		return nil
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
	view("/links", "no link estimates yet", "application/json", func() func(io.Writer) error {
		if links := call(cfg.Links); links != nil {
			return func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(links)
			}
		}
		return nil
	})
	// An unwired timeline is a 503; a wired one that has no samples yet is an
	// empty 200.
	view("/timeline", "no metrics timeline yet", "application/x-ndjson", func() func(io.Writer) error {
		if cfg.Timeline == nil {
			return nil
		}
		return ndjson(cfg.Timeline())
	})

	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		c := call(cfg.Events)
		if c == nil {
			http.Error(w, "no event collector yet", http.StatusServiceUnavailable)
			return
		}
		Tail(w, r, c.Subscribe)
	})

	if cfg.Jobs != nil {
		mux.Handle("/jobs", cfg.Jobs)
		mux.Handle("/jobs/", cfg.Jobs)
	}

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log.Debug("telemetry: request", "method", r.Method, "path", r.URL.Path, "remote", r.RemoteAddr)
		mux.ServeHTTP(w, r)
	})
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

// Tail streams an event log as NDJSON, one event per line: the history the
// subscription starts with, then live events until the client disconnects
// or the subscription is canceled. It is the one tail of the telemetry
// plane — /events subscribes to an obs.Collector, /jobs?watch=1 to the job
// service — so subscribe is a log's Subscribe method (obs.Log.Subscribe).
func Tail[E any](w http.ResponseWriter, r *http.Request, subscribe func(buf int) ([]E, <-chan E, func())) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A subscriber that falls this many events behind starts losing them.
	history, ch, cancel := subscribe(1024)
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
			// Drain whatever else is queued before flushing, so bursts
			// don't flush per event.
			for drained := false; !drained; {
				select {
				case ev, ok := <-ch:
					if !ok {
						return
					}
					if err := enc.Encode(ev); err != nil {
						return
					}
				default:
					drained = true
				}
			}
			if flusher != nil {
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
	obs.LoggerOr(cfg.Logger).Info("telemetry: serving", "addr", s.Addr())
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener and severs open connections (including /events
// streams).
func (s *Server) Close() error {
	return s.srv.Close()
}
