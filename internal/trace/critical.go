package trace

import (
	"fmt"
	"sort"

	"wanshuffle/internal/topology"
)

// CriticalPath is the causal chain of spans that determined a run's
// wall-clock, with its time attributed to compute, transfer, and wait.
// The invariant ComputeSec + TransferSec + WaitSec ≤ TotalSec holds by
// construction: each chain step only charges the part of its window not
// already covered by an earlier step.
type CriticalPath struct {
	// TotalSec spans from the first chain span's start to run end.
	TotalSec float64 `json:"total_sec"`
	// ComputeSec is critical-path time inside map/reduce/receive work.
	ComputeSec float64 `json:"compute_sec"`
	// TransferSec is critical-path time inside data movement
	// (push/fetch/serve/input/result spans).
	TransferSec float64 `json:"transfer_sec"`
	// WaitSec is critical-path time covered by no span at all — barrier
	// and scheduling gaps between causally linked spans.
	WaitSec      float64 `json:"wait_sec"`
	ComputeFrac  float64 `json:"compute_frac"`
	TransferFrac float64 `json:"transfer_frac"`
	WaitFrac     float64 `json:"wait_frac"`
	// Hosts counts distinct hosts the chain crosses.
	Hosts int `json:"hosts"`
	// Links aggregates critical-path transfer seconds by site pair,
	// cross-site only, sorted by seconds descending.
	Links []LinkCost `json:"links,omitempty"`
	// Steps is the chain in causal order, ending at the span that
	// finished the run.
	Steps []PathStep `json:"steps"`
}

// LinkCost is critical-path transfer time attributed to one site pair.
type LinkCost struct {
	Src   string  `json:"src"`
	Dst   string  `json:"dst"`
	Sec   float64 `json:"sec"`
	Bytes float64 `json:"bytes,omitempty"`
	// Frac is Sec over the whole path's TotalSec.
	Frac float64 `json:"frac"`
}

// PathStep is one span on the critical path.
type PathStep struct {
	Kind  Kind    `json:"kind"`
	Host  string  `json:"host"`
	Stage int     `json:"stage"`
	Part  int     `json:"part"`
	Span  SpanID  `json:"span,omitempty"`
	Src   string  `json:"src,omitempty"`
	Dst   string  `json:"dst,omitempty"`
	Start float64 `json:"start_sec"`
	End   float64 `json:"end_sec"`
	// SelfSec is the time this step contributed to the path — its window
	// minus any overlap with earlier steps.
	SelfSec float64 `json:"self_sec"`
	// WaitSec is the uncovered gap between the previous step's end and
	// this step's start.
	WaitSec float64 `json:"wait_sec,omitempty"`
}

// Summary renders the one-line wansim digest, e.g.
// "critical path: 62% transfer / 30% compute / 8% wait across 7 spans on
// 3 hosts; busiest link site-a→site-b (54% of the path)".
func (cp *CriticalPath) Summary() string {
	if cp == nil || cp.TotalSec <= 0 {
		return "critical path: (no trace)"
	}
	s := fmt.Sprintf("critical path: %.0f%% transfer / %.0f%% compute / %.0f%% wait across %d spans on %d hosts",
		100*cp.TransferFrac, 100*cp.ComputeFrac, 100*cp.WaitFrac, len(cp.Steps), cp.Hosts)
	if len(cp.Links) > 0 {
		l := cp.Links[0]
		s += fmt.Sprintf("; busiest link %s→%s (%.0f%% of the path)", l.Src, l.Dst, 100*l.Frac)
	}
	return s
}

// isTransfer reports whether a span kind moves data rather than computing
// on it. Everything else (map/reduce/receive/fail) counts as compute.
func isTransfer(k Kind) bool {
	switch k {
	case KindPush, KindFetch, KindServe, KindInput, KindResult:
		return true
	}
	return false
}

// EnforceCausality returns a copy of spans in which no span starts before
// the span it links to: a receive cannot precede its push-send. Spans
// violating the invariant (imperfect clock alignment) are shifted forward,
// preserving duration. Spans with no link, or whose link is absent from
// the set, pass through unchanged. Both backends stamp every span of a run
// on one clock, so reports read the raw trace and nothing on a job's path
// calls this; it stays only for the benchmark's critical-path probe and goes
// with it (ROADMAP 1(b)).
func EnforceCausality(spans []Span) []Span {
	out := make([]Span, len(spans))
	copy(out, spans)
	starts := make(map[SpanID]float64, len(out))
	for _, s := range out {
		if s.ID != 0 {
			starts[s.ID] = s.Start
		}
	}
	for i := range out {
		s := &out[i]
		if s.Link == 0 {
			continue
		}
		if sendStart, ok := starts[s.Link]; ok && s.Start < sendStart {
			d := sendStart - s.Start
			s.Start += d
			s.End += d
		}
	}
	return out
}

// AnalyzeCriticalPath walks the span DAG backwards from the span that
// ended the run and returns the causal chain that determined wall-clock.
// Predecessor edges are: the linked remote span (receive ← push-send),
// child spans (a task's own fetches/pushes/serves nest under it), and
// shuffle producers (a fetch/serve consuming shuffle k depends on the
// map/receive spans that produced k). At each hop the latest-ending
// predecessor wins — it is the one that gated this span. topo resolves
// host names and may be nil (hosts render as "h<id>"). Returns nil when
// spans is empty.
func AnalyzeCriticalPath(spans []Span, topo *topology.Topology) *CriticalPath {
	if len(spans) == 0 {
		return nil
	}
	byID := map[SpanID]int{}
	children := map[SpanID][]int{}
	producers := map[int][]int{} // shuffle ID → producing span indexes
	for i, s := range spans {
		if s.ID != 0 {
			byID[s.ID] = i
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		// Compute spans carry the shuffle they produced (a reduce of an
		// intermediate stage produces the next stage's shuffle).
		if s.Shuffle != 0 && (s.Kind == KindMap || s.Kind == KindReduce || s.Kind == KindReceive) {
			producers[s.Shuffle] = append(producers[s.Shuffle], i)
		}
	}

	// The chain root: the span that ended last (ties: earliest start,
	// then recording order, for determinism).
	end := 0
	for i, s := range spans {
		if s.End > spans[end].End ||
			(s.End == spans[end].End && s.Start < spans[end].Start) {
			end = i
		}
	}

	visited := map[int]bool{}
	var chain []int
	for cur := end; ; {
		chain = append(chain, cur)
		visited[cur] = true
		s := spans[cur]

		var cands []int
		if s.Link != 0 {
			if i, ok := byID[s.Link]; ok {
				cands = append(cands, i)
			}
		}
		// The parent task gates everything it spawned (map → its push).
		if s.Parent != 0 {
			if i, ok := byID[s.Parent]; ok {
				cands = append(cands, i)
			}
		}
		// Inbound children gate their parent: a task waits on its fetches
		// and input reads, a fetch on the serves answering it. Outbound
		// children (push, result) are spawned by the task, not awaited
		// before it runs, so they are not predecessors.
		for _, i := range children[s.ID] {
			switch spans[i].Kind {
			case KindFetch, KindServe, KindInput:
				cands = append(cands, i)
			}
		}
		if s.Shuffle != 0 && (s.Kind == KindFetch || s.Kind == KindServe) {
			for _, i := range producers[s.Shuffle] {
				// A serve streams one map partition; only its producer gates it.
				if s.Kind == KindServe && spans[i].Part != s.Part {
					continue
				}
				cands = append(cands, i)
			}
		}

		best, found := -1, false
		for _, i := range cands {
			if visited[i] || spans[i].Start > s.End {
				continue
			}
			if !found || later(spans[i], spans[best]) || (spans[i].End == spans[best].End && spans[i].Start == spans[best].Start && i < best) {
				best, found = i, true
			}
		}
		if !found {
			break
		}
		cur = best
	}

	// chain is end→origin; flip to causal order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	cp := &CriticalPath{}
	hosts := map[topology.HostID]bool{}
	links := map[[2]string]*LinkCost{}
	prevEnd := spans[chain[0]].Start
	for _, i := range chain {
		s := spans[i]
		hosts[s.Host] = true
		wait := 0.0
		if s.Start > prevEnd {
			wait = s.Start - prevEnd
		}
		self := s.End - s.Start
		if s.Start < prevEnd {
			self = s.End - prevEnd // only the uncovered tail counts
		}
		if self < 0 {
			self = 0
		}
		cp.WaitSec += wait
		if isTransfer(s.Kind) {
			cp.TransferSec += self
			if s.SrcSite != "" && s.DstSite != "" && s.SrcSite != s.DstSite {
				k := [2]string{s.SrcSite, s.DstSite}
				if links[k] == nil {
					links[k] = &LinkCost{Src: s.SrcSite, Dst: s.DstSite}
				}
				links[k].Sec += self
				links[k].Bytes += s.Bytes
			}
		} else {
			cp.ComputeSec += self
		}
		cp.Steps = append(cp.Steps, PathStep{
			Kind: s.Kind, Host: hostName(topo, s.Host),
			Stage: s.Stage, Part: s.Part, Span: s.ID,
			Src: s.SrcSite, Dst: s.DstSite,
			Start: s.Start, End: s.End,
			SelfSec: self, WaitSec: wait,
		})
		if s.End > prevEnd {
			prevEnd = s.End
		}
	}
	cp.TotalSec = spans[chain[len(chain)-1]].End - spans[chain[0]].Start
	cp.Hosts = len(hosts)
	if cp.TotalSec > 0 {
		cp.ComputeFrac = cp.ComputeSec / cp.TotalSec
		cp.TransferFrac = cp.TransferSec / cp.TotalSec
		cp.WaitFrac = cp.WaitSec / cp.TotalSec
	}
	for _, l := range links {
		if cp.TotalSec > 0 {
			l.Frac = l.Sec / cp.TotalSec
		}
		cp.Links = append(cp.Links, *l)
	}
	sort.Slice(cp.Links, func(i, j int) bool {
		if cp.Links[i].Sec != cp.Links[j].Sec {
			return cp.Links[i].Sec > cp.Links[j].Sec
		}
		if cp.Links[i].Src != cp.Links[j].Src {
			return cp.Links[i].Src < cp.Links[j].Src
		}
		return cp.Links[i].Dst < cp.Links[j].Dst
	})
	return cp
}

// later reports whether span a gates more than span b: later end, then
// later start as the tie-break (the tighter predecessor).
func later(a, b Span) bool {
	if a.End != b.End {
		return a.End > b.End
	}
	return a.Start > b.Start
}

func hostName(topo *topology.Topology, h topology.HostID) string {
	if topo != nil && int(h) >= 0 && int(h) < topo.NumHosts() {
		return topo.Host(h).Name
	}
	return fmt.Sprintf("h%d", h)
}
