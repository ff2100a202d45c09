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
	nilE.ObserveRTT("a", "b", 0.01)
	if got := nilE.Estimates(); got != nil {
		t.Fatalf("nil estimator reported %+v", got)
	}
}

func TestPercentilesFromWindow(t *testing.T) {
	e := NewEstimator(Config{})
	// 100 samples (fewer than the window) at 8, 16, 24, ... 800 bps (1..100
	// bytes over 1s).
	for i := 1; i <= 100; i++ {
		e.ObserveTransfer("x", "y", float64(i), 1)
	}
	est := e.Estimates()[0]
	if est.P50Bps != 50*8 {
		t.Fatalf("p50 = %v, want %v", est.P50Bps, 50*8)
	}
	if est.P95Bps != 95*8 {
		t.Fatalf("p95 = %v, want %v", est.P95Bps, 95*8)
	}
}

func TestWindowBoundsRing(t *testing.T) {
	e := NewEstimator(Config{})
	// window+10 samples at 8, 16, ... bps; only the newest window of them
	// (the 11th on) stay in the ring.
	const n = window + 10
	for i := 1; i <= n; i++ {
		e.ObserveTransfer("x", "y", float64(i), 1)
	}
	est := e.Estimates()[0]
	if est.Samples != n {
		t.Fatalf("samples = %d, want %d (count must outlive the ring)", est.Samples, n)
	}
	// Nearest rank over the retained samples 11..n; over all n the median
	// would be sample n/2.
	if want := float64(10+window/2) * 8; est.P50Bps != want {
		t.Fatalf("p50 = %v, want %v (median of the retained window)", est.P50Bps, want)
	}
	if est.P95Bps <= est.P50Bps || est.P95Bps > n*8 {
		t.Fatalf("p95 = %v outside (p50, newest sample %d]", est.P95Bps, n*8)
	}
}

func TestObserveRTT(t *testing.T) {
	e := NewEstimator(Config{})
	e.ObserveRTT("a", "b", 0.100)
	e.ObserveRTT("a", "b", 0.200)
	est := e.Estimates()[0]
	if want := 0.100 + alpha*(0.200-0.100); math.Abs(est.RTTSec-want) > 1e-12 {
		t.Fatalf("rtt EWMA = %v, want %v", est.RTTSec, want)
	}
	if est.RTTSamples != 2 {
		t.Fatalf("rtt samples = %d, want 2", est.RTTSamples)
	}
	if est.Samples != 0 {
		t.Fatalf("transfer samples = %d, want 0 (RTT-only link)", est.Samples)
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

func TestRegistryMirror(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEstimator(Config{Registry: func() *obs.Registry { return reg }})
	e.ObserveTransfer("a", "b", 1000, 1)
	e.ObserveRTT("a", "b", 0.05)
	labels := obs.Labels{"src": "a", "dst": "b"}
	if got := reg.Gauge("link_throughput_bps", labels).Value(); got != 8000 {
		t.Fatalf("link_throughput_bps = %v, want 8000", got)
	}
	if got := reg.Counter("link_samples_total", labels).Value(); got != 1 {
		t.Fatalf("link_samples_total = %v, want 1", got)
	}
	if got := reg.Gauge("link_rtt_sec", labels).Value(); got != 0.05 {
		t.Fatalf("link_rtt_sec = %v, want 0.05", got)
	}
	// A registry fn returning nil must not panic (live cluster between
	// runs).
	e2 := NewEstimator(Config{Registry: func() *obs.Registry { return nil }})
	e2.ObserveTransfer("a", "b", 1000, 1)
	e2.ObserveRTT("a", "b", 0.05)
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
				e.ObserveRTT(src, "z", 0.01)
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
	// RTT-only pairs carry no throughput samples and must not count as
	// measured bandwidth.
	e.ObserveRTT("a", "b", 0.05)
	if _, ok := e.Estimate("a", "b"); ok {
		t.Fatal("RTT-only pair returned a bandwidth estimate")
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
