// Package trace records task and transfer spans on the virtual timeline
// and renders them as ASCII Gantt charts, reproducing the style of the
// paper's Figs. 1 and 2 (per-worker rows of map / transfer / shuffle-read /
// reduce activity).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wanshuffle/internal/topology"
)

// Kind classifies a span.
type Kind string

// Span kinds. The rune after the colon is used in Gantt rendering.
const (
	KindMap     Kind = "map"     // M
	KindReduce  Kind = "reduce"  // R
	KindPush    Kind = "push"    // P: transferTo flow
	KindReceive Kind = "receive" // V: receiver task occupancy
	KindFetch   Kind = "fetch"   // F: shuffle read
	KindInput   Kind = "input"   // I: reading/moving job input
	KindResult  Kind = "result"  // C: result collection
	KindServe   Kind = "serve"   // S: serving a shuffle fetch to a peer
	KindFail    Kind = "fail"    // X: failed attempt
)

func (k Kind) glyph() byte {
	switch k {
	case KindMap:
		return 'M'
	case KindReduce:
		return 'R'
	case KindPush:
		return 'P'
	case KindReceive:
		return 'V'
	case KindFetch:
		return 'F'
	case KindInput:
		return 'I'
	case KindResult:
		return 'C'
	case KindServe:
		return 'S'
	case KindFail:
		return 'X'
	default:
		return '?'
	}
}

// TraceID names one job run; every span of the run carries it.
type TraceID string

// SpanID identifies a span within a trace; Recorder.NewSpanID hands them
// out. Zero means "unset" — an untraced span, or an edge that does not
// apply.
type SpanID int64

// Span is one timed activity on a host, optionally annotated with causal
// context: its place in the run's span DAG (ID / Parent), a cross-host
// link to the remote span it consumed (Link — e.g. a receive span links
// the push-send it installed), the shuffle it produced or consumed, and
// site/byte/record attribution. JSON tags shape the /trace NDJSON stream.
type Span struct {
	Trace  TraceID `json:"trace,omitempty"`
	ID     SpanID  `json:"id,omitempty"`
	Parent SpanID  `json:"parent,omitempty"`
	// Link points at the remote span this one consumed: for a receive
	// span, the push-send that produced its records. Causality requires
	// the linked span to start no later than this one.
	Link SpanID `json:"link,omitempty"`

	Kind  Kind            `json:"kind"`
	Host  topology.HostID `json:"host"`
	Stage int             `json:"stage"`
	Part  int             `json:"part"`
	// Shuffle is the shuffle this span produced (map/receive) or consumed
	// (fetch/serve); shuffle IDs start at 1, so zero means none.
	Shuffle int    `json:"shuffle,omitempty"`
	Label   string `json:"label,omitempty"`
	// SrcSite/DstSite name the endpoints of transfer spans (DC names in
	// the simulator, worker labels on the live cluster).
	SrcSite string  `json:"src,omitempty"`
	DstSite string  `json:"dst,omitempty"`
	Bytes   float64 `json:"bytes,omitempty"`
	Records int     `json:"records,omitempty"`
	Start   float64 `json:"start_sec"`
	End     float64 `json:"end_sec"`
}

// Recorder accumulates spans and numbers them, and is safe for concurrent
// use: the simulator records from its event loop, the live cluster from task
// goroutines and server handlers, and telemetry scrapes read either mid-run.
// The zero value is ready to use; a nil *Recorder discards everything.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
	// lastID is the span ID NewSpanID handed out last.
	lastID atomic.Int64
}

// SyncRecorder is the name the live cluster's recorder had while the
// simulator's was unlocked; they are one type now. Only the benchmark
// (perf/) still uses this name; it goes in ROADMAP 1(b).
type SyncRecorder = Recorder

// NewSpanID returns the next span ID, counting 1, 2, 3, … in call order —
// a simulation's event order, so its trace is the same for the same seed.
// Every span of a run is recorded in this one process, so one counter keeps
// IDs unique across the driver, the workers and every job the recorder
// sees. A nil recorder returns 0, the ID of an untraced span.
func (r *Recorder) NewSpanID() SpanID {
	if r == nil {
		return 0
	}
	return SpanID(r.lastID.Add(1))
}

// Add records a span.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	if s.End < s.Start {
		panic(fmt.Sprintf("trace: span ends (%v) before it starts (%v)", s.End, s.Start))
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns all recorded spans sorted by start time (stable).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Gantt renders the spans as an ASCII chart with one row per host that has
// activity, width characters wide. Overlapping spans on a host merge
// left-to-right (later kinds overwrite earlier within the overlap), which
// is enough to read stage structure at a glance:
//
//	w0 |MMMMMMPPPPPP......RRRR|
//	w1 |MMMMMMMMMMPPPP....RRRR|
func (r *Recorder) Gantt(topo *topology.Topology, width int) string {
	spans := r.Spans()
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if width < 10 {
		width = 10
	}
	var tMax float64
	hosts := map[topology.HostID]bool{}
	for _, s := range spans {
		if s.End > tMax {
			tMax = s.End
		}
		hosts[s.Host] = true
	}
	if tMax <= 0 {
		tMax = 1
	}
	ids := make([]topology.HostID, 0, len(hosts))
	for h := range hosts {
		ids = append(ids, h)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	scale := float64(width) / tMax
	rows := map[topology.HostID][]byte{}
	for _, h := range ids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		rows[h] = row
	}
	for _, s := range spans {
		row := rows[s.Host]
		from := int(s.Start * scale)
		to := int(s.End * scale)
		// Clamp both edges so a span starting at/after the right edge
		// (e.g. Start == tMax) still paints at least one cell.
		if from >= width {
			from = width - 1
		}
		if to >= width {
			to = width - 1
		}
		for i := from; i <= to; i++ {
			row[i] = s.Kind.glyph()
		}
	}
	var b strings.Builder
	nameWidth := 0
	for _, h := range ids {
		if n := len(topo.Host(h).Name); n > nameWidth {
			nameWidth = n
		}
	}
	fmt.Fprintf(&b, "%*s  0%s%.1fs\n", nameWidth, "t:", strings.Repeat(" ", width-len(fmt.Sprintf("%.1fs", tMax))), tMax)
	for _, h := range ids {
		fmt.Fprintf(&b, "%*s |%s|\n", nameWidth, topo.Host(h).Name, rows[h])
	}
	b.WriteString("legend: M=map P=push V=receive F=fetch S=serve R=reduce I=input C=collect X=failed\n")
	return b.String()
}
