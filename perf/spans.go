package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made: name, start and end in
// seconds since the run began, the span that caused it (0 for the root),
// and the run it belongs to.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Self is the span's duration minus the part of it its children cover.
	// Filled by Finish.
	Self float64 `json:"self_s"`
}

// Recorder keeps the benchmark's own spans in memory until the run ends.
// A nil *Recorder records nothing, so the untraced run pays one nil check
// per call site. Spans are recorded around the calls the benchmark makes
// into each layer, never inside the program under test.
type Recorder struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []Span
}

// NewRecorder starts a recorder for one run.
func NewRecorder(run string) *Recorder {
	return &Recorder{run: run, epoch: time.Now()}
}

// Begin opens a span under parent (0 for the root) and returns its ID.
func (r *Recorder) Begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id <= 0 {
		return
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if id <= len(r.spans) {
		r.spans[id-1].End = now
	}
}

// Do runs fn inside a span.
func (r *Recorder) Do(parent int, name string, fn func(id int)) {
	id := r.Begin(parent, name)
	fn(id)
	r.End(id)
}

// Finish closes any span still open, fills every span's self time and
// returns the spans in start order.
func (r *Recorder) Finish() []Span {
	if r == nil {
		return nil
	}
	now := time.Since(r.epoch).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if r.spans[i].End < 0 {
			r.spans[i].End = now
		}
	}
	out := append([]Span(nil), r.spans...)
	FillSelfTimes(out)
	return out
}

// FillSelfTimes sets each span's Self to its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func FillSelfTimes(spans []Span) {
	children := map[int][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// CheckNesting verifies that every child lies inside its parent and that
// no self time is negative (beyond float rounding).
func CheckNesting(spans []Span) error {
	const eps = 1e-9
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Self < -eps {
			return fmt.Errorf("span %d %q has negative self time %g", s.ID, s.Name, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q names unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start-eps || s.End > p.End+eps {
			return fmt.Errorf("span %d %q [%g,%g] escapes parent %d %q [%g,%g]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// WriteSpans writes the spans as one JSON document.
func WriteSpans(path string, spans []Span) error {
	data, err := json.MarshalIndent(struct {
		Schema string `json:"schema"`
		Spans  []Span `json:"spans"`
	}{"wanperf/trace/v1", spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
