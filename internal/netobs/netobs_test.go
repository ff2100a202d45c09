package netobs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/obs"
)

func TestObserveTransferEWMAAndCounts(t *testing.T) {
	e := NewEstimator(Config{})
	// 1000 bytes in 1s = 8000 bps; first sample seeds the EWMA exactly.
	e.ObserveTransfer("a", "b", 1000, 1)
	ests := e.Estimates()
	if len(ests) != 1 {
		t.Fatalf("estimates = %d, want 1", len(ests))
	}
	if got := ests[0].ThroughputBps; got != 8000 {
		t.Fatalf("first sample EWMA = %v, want 8000", got)
	}
	// Second sample 2000 bytes in 1s = 16000 bps, folded in with weight
	// alpha (0.2 → 9600).
	e.ObserveTransfer("a", "b", 2000, 1)
	ests = e.Estimates()
	if got, want := ests[0].ThroughputBps, 8000+alpha*(16000-8000); got != want {
		t.Fatalf("EWMA after second sample = %v, want %v", got, want)
	}
	if ests[0].Samples != 2 || ests[0].Bytes != 3000 {
		t.Fatalf("samples/bytes = %d/%v, want 2/3000", ests[0].Samples, ests[0].Bytes)
	}
	if ests[0].Src != "a" || ests[0].Dst != "b" {
		t.Fatalf("pair = %s->%s, want a->b", ests[0].Src, ests[0].Dst)
	}
}

func TestObserveTransferIgnoresDegenerateSamples(t *testing.T) {
	e := NewEstimator(Config{})
	e.ObserveTransfer("a", "b", 0, 1)
	e.ObserveTransfer("a", "b", 100, 0)
	e.ObserveTransfer("a", "b", -5, 1)
	e.ObserveTransfer("a", "b", 100, -1)
	if got := e.Estimates(); len(got) != 0 {
		t.Fatalf("degenerate samples recorded: %+v", got)
	}
	// A nil estimator ignores everything without panicking.
	var nilE *Estimator
	nilE.ObserveTransfer("a", "b", 100, 1)
	if got := nilE.Estimates(); got != nil {
		t.Fatalf("nil estimator reported %+v", got)
	}
}

func TestEstimatesSortedDeterministically(t *testing.T) {
	e := NewEstimator(Config{})
	e.ObserveTransfer("b", "a", 10, 1)
	e.ObserveTransfer("a", "b", 10, 1)
	e.ObserveTransfer("a", "a", 10, 1)
	ests := e.Estimates()
	want := [][2]string{{"a", "a"}, {"a", "b"}, {"b", "a"}}
	for i, w := range want {
		if ests[i].Src != w[0] || ests[i].Dst != w[1] {
			t.Fatalf("estimate %d = %s->%s, want %s->%s", i, ests[i].Src, ests[i].Dst, w[0], w[1])
		}
	}
}

func TestReportSectionMergesConfigured(t *testing.T) {
	e := NewEstimator(Config{})
	e.ObserveTransfer("va", "ca", 1e6, 1) // 8 Mbps observed
	e.ObserveTransfer("ca", "va", 1e6, 2) // 4 Mbps observed, unconfigured
	configured := []ConfiguredLink{
		{Src: "va", Dst: "ca", Bps: 16e6}, // observed: drift 0.5
		{Src: "va", Dst: "ie", Bps: 8e6},  // never observed: drift 0
	}
	n := ReportSection(e, configured)
	if n == nil || len(n.Links) != 3 {
		t.Fatalf("links = %+v, want 3 entries", n)
	}
	byPair := map[[2]string]obs.LinkStats{}
	for _, l := range n.Links {
		byPair[[2]string{l.Src, l.Dst}] = l
	}
	vc := byPair[[2]string{"va", "ca"}]
	if vc.Drift == nil || math.Abs(*vc.Drift-0.5) > 1e-12 {
		t.Fatalf("va->ca drift = %v, want 0.5", vc.Drift)
	}
	if vc.ConfiguredBps != 16e6 || vc.Samples != 1 {
		t.Fatalf("va->ca = %+v", vc)
	}
	cv := byPair[[2]string{"ca", "va"}]
	if cv.Drift != nil {
		t.Fatalf("unconfigured ca->va carries drift %v", *cv.Drift)
	}
	vi := byPair[[2]string{"va", "ie"}]
	if vi.Drift == nil || *vi.Drift != 0 {
		t.Fatalf("configured-but-unobserved va->ie drift = %v, want 0", vi.Drift)
	}
	if vi.Samples != 0 {
		t.Fatalf("va->ie samples = %d, want 0", vi.Samples)
	}
	// Deterministic order: sorted by src then dst.
	for i := 1; i < len(n.Links); i++ {
		a, b := n.Links[i-1], n.Links[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst) {
			t.Fatalf("links unsorted at %d: %+v", i, n.Links)
		}
	}
}

func TestReportSectionEmpty(t *testing.T) {
	if n := ReportSection(NewEstimator(Config{}), nil); n != nil {
		t.Fatalf("empty section = %+v, want nil", n)
	}
	if n := ReportSection(nil, nil); n != nil {
		t.Fatalf("nil estimator section = %+v, want nil", n)
	}
}

func TestSummary(t *testing.T) {
	if got := Summary(nil); got != "links: none observed" {
		t.Fatalf("nil summary = %q", got)
	}
	e := NewEstimator(Config{})
	e.ObserveTransfer("va", "ca", 1e6, 1)
	n := ReportSection(e, []ConfiguredLink{{Src: "va", Dst: "ca", Bps: 16e6}})
	got := Summary(n)
	for _, want := range []string{"1 pairs measured", "va->ca", "drift"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary %q missing %q", got, want)
		}
	}
	// Configured-only section: no measured pairs.
	n2 := ReportSection(NewEstimator(Config{}), []ConfiguredLink{{Src: "a", Dst: "b", Bps: 1}})
	if got := Summary(n2); !strings.Contains(got, "0 of 1") {
		t.Fatalf("configured-only summary = %q", got)
	}
}

func TestEstimatorConcurrent(t *testing.T) {
	e := NewEstimator(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := string(rune('a' + g%4))
			for i := 0; i < 200; i++ {
				e.ObserveTransfer(src, "z", float64(i+1), 0.001)
				_ = e.Estimates()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, est := range e.Estimates() {
		total += est.Samples
	}
	if total != 8*200 {
		t.Fatalf("total samples = %d, want %d", total, 8*200)
	}
}

func TestEstimateLookup(t *testing.T) {
	var nilE *Estimator
	if _, ok := nilE.Estimate("a", "b"); ok {
		t.Fatal("nil estimator returned an estimate")
	}
	e := NewEstimator(Config{})
	if _, ok := e.Estimate("a", "b"); ok {
		t.Fatal("unobserved pair returned an estimate")
	}
	e.ObserveTransfer("a", "b", 0, 1) // degenerate: no rate, no link
	if _, ok := e.Estimate("a", "b"); ok {
		t.Fatal("degenerate sample created an estimate")
	}
	e.ObserveTransfer("a", "b", 1000, 1)
	est, ok := e.Estimate("a", "b")
	if !ok || est.ThroughputBps != 8000 || est.Samples != 1 {
		t.Fatalf("Estimate(a,b) = (%+v, %v), want 8000 bps / 1 sample", est, ok)
	}
	if _, ok := e.Estimate("b", "a"); ok {
		t.Fatal("reverse direction returned an estimate")
	}
}

// TestReportSectionDegenerateConfiguredRates is the satellite-2
// regression: configured links with zero, negative, or non-finite rates
// used to reach the drift division, producing ±Inf/NaN drift values that
// json.Marshal rejects. They must be treated as unconfigured, and the
// whole section must round-trip through encoding/json.
func TestReportSectionDegenerateConfiguredRates(t *testing.T) {
	e := NewEstimator(Config{})
	e.ObserveTransfer("va", "ca", 1e6, 1) // 8 Mbps observed
	e.ObserveTransfer("ca", "or", 1e6, 1) // observed, degenerate config
	e.ObserveTransfer("or", "va", 1e6, 1) // observed, unconfigured
	configured := []ConfiguredLink{
		{Src: "va", Dst: "ca", Bps: 16e6},        // sane: drift 0.5
		{Src: "ca", Dst: "or", Bps: 0},           // zero-rate (unset)
		{Src: "or", Dst: "ca", Bps: -1},          // negative
		{Src: "va", Dst: "or", Bps: math.NaN()},  // NaN
		{Src: "ca", Dst: "va", Bps: math.Inf(1)}, // +Inf
	}
	n := ReportSection(e, configured)
	if n == nil {
		t.Fatal("section is nil")
	}
	for _, l := range n.Links {
		if math.IsNaN(l.ConfiguredBps) || math.IsInf(l.ConfiguredBps, 0) || l.ConfiguredBps < 0 {
			t.Fatalf("%s->%s carries degenerate configured rate %v", l.Src, l.Dst, l.ConfiguredBps)
		}
		if l.Drift != nil && (math.IsNaN(*l.Drift) || math.IsInf(*l.Drift, 0)) {
			t.Fatalf("%s->%s carries non-finite drift %v", l.Src, l.Dst, *l.Drift)
		}
	}
	byPair := map[[2]string]obs.LinkStats{}
	for _, l := range n.Links {
		byPair[[2]string{l.Src, l.Dst}] = l
	}
	if got := byPair[[2]string{"ca", "or"}]; got.Drift != nil || got.ConfiguredBps != 0 {
		t.Fatalf("zero-rate configured link kept drift/config: %+v", got)
	}
	if got := byPair[[2]string{"va", "ca"}]; got.Drift == nil || math.Abs(*got.Drift-0.5) > 1e-12 {
		t.Fatalf("sane configured link lost its drift: %+v", got)
	}
	// The regression's actual symptom: json.Marshal fails on ±Inf/NaN.
	if _, err := json.Marshal(n); err != nil {
		t.Fatalf("run report section does not marshal: %v", err)
	}
}

// TestEstimateDoesNotAllocate holds a placement lookup to a copy of the
// link's three numbers: nothing is sorted or cloned per call.
func TestEstimateDoesNotAllocate(t *testing.T) {
	e := NewEstimator(Config{})
	for i := 0; i < 200; i++ {
		e.ObserveTransfer("a", "b", float64(1000+i), 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := e.Estimate("a", "b"); !ok {
			t.Fatal("observed pair has no estimate")
		}
	})
	if allocs != 0 {
		t.Fatalf("Estimate allocates %v times per call, want 0", allocs)
	}
}
