package trace

import (
	"math"
	"strings"
	"testing"

	"wanshuffle/internal/topology"
)

// pushChain builds the canonical live-shuffle causal chain:
//
//	map(1) → push(2) → receive(3, links 2) → serve(4) → fetch(5, parent 6) → reduce(6)
//
// with a barrier gap between the receive and the downstream fetch.
func pushChain() []Span {
	return []Span{
		{Trace: "t", ID: 1, Kind: KindMap, Host: 0, Stage: 1, Shuffle: 1, Start: 0, End: 4},
		{Trace: "t", ID: 2, Parent: 1, Kind: KindPush, Host: 0, Shuffle: 1, SrcSite: "dc-a", DstSite: "dc-b", Bytes: 1e6, Start: 4, End: 7},
		{Trace: "t", ID: 3, Parent: 1, Link: 2, Kind: KindReceive, Host: 2, Stage: 1, Shuffle: 1, SrcSite: "dc-a", DstSite: "dc-b", Start: 4.5, End: 7.5},
		{Trace: "t", ID: 4, Parent: 5, Kind: KindServe, Host: 2, Shuffle: 1, SrcSite: "dc-b", DstSite: "dc-b", Start: 9.2, End: 9.6},
		{Trace: "t", ID: 5, Parent: 6, Kind: KindFetch, Host: 2, Shuffle: 1, Start: 9, End: 10},
		{Trace: "t", ID: 6, Kind: KindReduce, Host: 2, Stage: 2, Start: 10, End: 12},
	}
}

func TestCriticalPathWalksPushChain(t *testing.T) {
	cp := AnalyzeCriticalPath(pushChain(), nil)
	if cp == nil {
		t.Fatal("nil critical path")
	}
	var kinds []string
	for _, st := range cp.Steps {
		kinds = append(kinds, string(st.Kind))
	}
	got := strings.Join(kinds, ",")
	want := "map,push,receive,serve,fetch,reduce"
	if got != want {
		t.Fatalf("chain = %s, want %s", got, want)
	}
	if cp.TotalSec != 12 {
		t.Fatalf("TotalSec = %v, want 12", cp.TotalSec)
	}
	// map 4 + receive tail (7.5−7) + reduce 2 = compute; push tail
	// (7−4... capped: push self = 7−4=3) — verify the budget identity
	// instead of each term.
	sum := cp.ComputeSec + cp.TransferSec + cp.WaitSec
	if sum > cp.TotalSec+1e-9 {
		t.Fatalf("attribution %v exceeds total %v", sum, cp.TotalSec)
	}
	if math.Abs(sum-cp.TotalSec) > 1e-9 {
		t.Fatalf("chain has full coverage; attribution %v should equal total %v", sum, cp.TotalSec)
	}
	if cp.WaitSec <= 0 {
		t.Fatalf("barrier gap (7.5→9) not attributed as wait: %+v", cp)
	}
	if cp.Hosts != 2 {
		t.Fatalf("Hosts = %d, want 2", cp.Hosts)
	}
	if len(cp.Links) != 1 || cp.Links[0].Src != "dc-a" || cp.Links[0].Dst != "dc-b" {
		t.Fatalf("Links = %+v", cp.Links)
	}
	if cp.Links[0].Bytes != 1e6 {
		t.Fatalf("link bytes = %v", cp.Links[0].Bytes)
	}
	fr := cp.ComputeFrac + cp.TransferFrac + cp.WaitFrac
	if fr > 1+1e-9 {
		t.Fatalf("fractions sum to %v > 1", fr)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	if cp := AnalyzeCriticalPath(nil, nil); cp != nil {
		t.Fatalf("empty spans produced %+v", cp)
	}
}

func TestCriticalPathPicksLatestPredecessor(t *testing.T) {
	// Two pushes feed the run-ending receive's host; the one that ended
	// later gated it.
	spans := []Span{
		{ID: 1, Kind: KindMap, Host: 0, Shuffle: 1, Start: 0, End: 2},
		{ID: 2, Parent: 1, Kind: KindPush, Host: 0, Start: 2, End: 3},
		{ID: 3, Kind: KindMap, Host: 1, Shuffle: 1, Start: 0, End: 5},
		{ID: 4, Parent: 3, Kind: KindPush, Host: 1, Start: 5, End: 6},
		{ID: 5, Parent: 3, Link: 4, Kind: KindReceive, Host: 2, Shuffle: 1, Start: 5.5, End: 8},
	}
	cp := AnalyzeCriticalPath(spans, nil)
	if len(cp.Steps) != 3 {
		t.Fatalf("steps = %+v", cp.Steps)
	}
	if cp.Steps[0].Span != 3 || cp.Steps[1].Span != 4 || cp.Steps[2].Span != 5 {
		t.Fatalf("picked wrong branch: %+v", cp.Steps)
	}
}

func TestCriticalPathOverlapNotDoubleCounted(t *testing.T) {
	// The push overlaps the map that spawned it (the paper's pipelining);
	// only the push's tail past map end may be charged.
	spans := []Span{
		{ID: 1, Kind: KindMap, Host: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Kind: KindPush, Host: 0, SrcSite: "a", DstSite: "b", Start: 2, End: 11},
	}
	cp := AnalyzeCriticalPath(spans, nil)
	if math.Abs(cp.ComputeSec-10) > 1e-9 || math.Abs(cp.TransferSec-1) > 1e-9 {
		t.Fatalf("compute=%v transfer=%v, want 10/1", cp.ComputeSec, cp.TransferSec)
	}
	if cp.ComputeSec+cp.TransferSec+cp.WaitSec > cp.TotalSec+1e-9 {
		t.Fatal("attribution exceeds total")
	}
}

func TestCriticalPathHostNames(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	cp := AnalyzeCriticalPath([]Span{{ID: 1, Kind: KindMap, Host: 0, Start: 0, End: 1}}, topo)
	if cp.Steps[0].Host != topo.Host(0).Name {
		t.Fatalf("host = %q, want topology name %q", cp.Steps[0].Host, topo.Host(0).Name)
	}
	cp = AnalyzeCriticalPath([]Span{{ID: 1, Kind: KindMap, Host: 64, Start: 0, End: 1}}, topo)
	if cp.Steps[0].Host != "h64" {
		t.Fatalf("out-of-range host = %q, want h64", cp.Steps[0].Host)
	}
}

func TestCriticalPathCycleGuard(t *testing.T) {
	// Mutually linked spans (corrupt input) must not loop forever.
	spans := []Span{
		{ID: 1, Link: 2, Kind: KindReceive, Host: 0, Start: 0, End: 2},
		{ID: 2, Link: 1, Kind: KindReceive, Host: 1, Start: 0, End: 1},
	}
	cp := AnalyzeCriticalPath(spans, nil)
	if len(cp.Steps) != 2 {
		t.Fatalf("steps = %+v", cp.Steps)
	}
}

func TestEnforceCausality(t *testing.T) {
	spans := []Span{
		{ID: 2, Kind: KindPush, Start: 5, End: 8},
		{ID: 3, Link: 2, Kind: KindReceive, Start: 3, End: 6}, // skewed 2s early
		{ID: 4, Link: 99, Kind: KindReceive, Start: 0, End: 1},
	}
	fixed := EnforceCausality(spans)
	if fixed[1].Start != 5 || fixed[1].End != 8 {
		t.Fatalf("receive not shifted to send start: %+v", fixed[1])
	}
	if fixed[2].Start != 0 {
		t.Fatalf("span with dangling link moved: %+v", fixed[2])
	}
	if spans[1].Start != 3 {
		t.Fatal("EnforceCausality mutated its input")
	}
	// Already-causal spans pass through.
	ok := EnforceCausality([]Span{
		{ID: 2, Kind: KindPush, Start: 1, End: 2},
		{ID: 3, Link: 2, Kind: KindReceive, Start: 1.5, End: 3},
	})
	if ok[1].Start != 1.5 {
		t.Fatalf("causal span shifted: %+v", ok[1])
	}
}

func TestCriticalPathSummary(t *testing.T) {
	if got := (*CriticalPath)(nil).Summary(); !strings.Contains(got, "no trace") {
		t.Fatalf("nil summary = %q", got)
	}
	cp := AnalyzeCriticalPath(pushChain(), nil)
	s := cp.Summary()
	for _, want := range []string{"critical path:", "% transfer", "% compute", "% wait", "dc-a→dc-b"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}
