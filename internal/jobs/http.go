package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"wanshuffle/internal/telemetry"
)

// SubmitRequest is the JSON body of POST /jobs: a named workload plus the
// tenant and admission/deadline knobs the caller wants applied.
type SubmitRequest struct {
	Tenant   string  `json:"tenant"`
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Repeat runs the workload this many times within the one job
	// (default 1), re-checking the job's context between rounds — an
	// iterative job whose rounds share the admission slot.
	Repeat     int   `json:"repeat,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	EstBytes   int64 `json:"est_bytes,omitempty"`
}

// Builder turns an HTTP submit request into a runnable Submission. The
// serving command supplies it: it resolves the workload name against its
// backend (shared live cluster or a fresh simulator context) and returns
// the run closure. A Builder error is the caller's fault (HTTP 400).
type Builder func(req SubmitRequest) (Submission, error)

// handler serves the /jobs HTTP surface.
type handler struct {
	svc   *Service
	build Builder
}

// NewHandler returns the /jobs HTTP handler:
//
//	GET  /jobs              JSON list of every job, submission order
//	GET  /jobs?watch=1      NDJSON lifecycle event stream (history + live)
//	POST /jobs              submit a workload (202; 429 when rejected)
//	GET  /jobs/{id}         one job's snapshot
//	GET  /jobs/{id}/report  the job's retained run report
//	POST /jobs/{id}/cancel  cancel a queued or running job
//
// It is mounted under both "/jobs" and "/jobs/" by the telemetry server.
func NewHandler(svc *Service, build Builder) http.Handler {
	return &handler{svc: svc, build: build}
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/jobs"), "/")
	switch {
	case rest == "":
		switch r.Method {
		case http.MethodGet:
			if r.URL.Query().Get("watch") != "" {
				telemetry.Tail(w, r, h.svc.Subscribe)
				return
			}
			h.list(w)
		case http.MethodPost:
			h.submit(w, r)
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case strings.HasSuffix(rest, "/report"):
		h.report(w, r, strings.TrimSuffix(rest, "/report"))
	case strings.HasSuffix(rest, "/cancel"):
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.cancel(w, strings.TrimSuffix(rest, "/cancel"))
	default:
		h.get(w, rest)
	}
}

func (h *handler) list(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Jobs []Info `json:"jobs"`
	}{Jobs: h.svc.List()})
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	if h.build == nil {
		http.Error(w, "job submission not enabled", http.StatusServiceUnavailable)
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	sub, err := h.build(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.DeadlineMS > 0 {
		sub.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	job, err := h.svc.Submit(sub)
	if err != nil {
		var rej *ErrRejected
		if errors.As(err, &rej) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}{Error: rej.Error(), Reason: rej.Reason})
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(job.Info())
}

func (h *handler) get(w http.ResponseWriter, id string) {
	info, ok := h.svc.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(info)
}

func (h *handler) report(w http.ResponseWriter, r *http.Request, id string) {
	rep, ok := h.svc.Report(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q", id), http.StatusNotFound)
		return
	}
	if rep == nil {
		http.Error(w, fmt.Sprintf("job %q has no report", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

func (h *handler) cancel(w http.ResponseWriter, id string) {
	if err := h.svc.Cancel(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	info, _ := h.svc.Get(id)
	json.NewEncoder(w).Encode(info)
}
