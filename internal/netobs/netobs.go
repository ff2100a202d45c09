// Package netobs is the WAN link observatory: a passive estimator that
// turns the transfer samples the system already produces (and the RTT a
// backend can supply: the simulator's modeled latency) into a live
// site-pair link estimate matrix (EWMA + windowed p50/p95 throughput, RTT,
// sample counts), plus a bounded metrics time-series
// ring (sampler.go) so telemetry scrapes are no longer point-in-time
// only. Both backends feed it — the live cluster from measured exchange
// wall-clock, the simulator from modeled flow completions — so the
// report's network section stays structurally comparable across
// backends, and a future bandwidth-adaptive planner can read measured
// link capacity instead of hard-coding configured numbers.
package netobs

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/topology"
)

// Config wires an Estimator.
type Config struct {
	// Registry, when set, names the registry the estimator mirrors its
	// per-link gauges and counters into (link_throughput_bps,
	// link_rtt_sec, link_samples_total). A function so callers whose
	// registry changes per run (the live cluster) stay wired; returning
	// nil skips the mirror.
	Registry func() *obs.Registry
}

// Every link's estimate folds a new throughput or RTT sample into its EWMA
// with weight alpha, and its p50/p95 come from the newest window
// throughput samples.
const (
	alpha  = 0.2
	window = 128
)

// link is the per-(src,dst) accumulator.
type link struct {
	ewmaBps    float64
	rttSec     float64
	samples    int64
	rttSamples int64
	bytes      float64
	// ring holds the last window throughput samples for percentiles.
	ring []float64
	next int
}

// Estimate is one site pair's current link estimate.
type Estimate struct {
	Src           string
	Dst           string
	ThroughputBps float64
	P50Bps        float64
	P95Bps        float64
	RTTSec        float64
	Samples       int64
	RTTSamples    int64
	Bytes         float64
}

// Estimator maintains link estimates per directed site pair. It is safe
// for concurrent use; a nil *Estimator ignores observations and reports
// nothing, so callers can leave it unwired.
type Estimator struct {
	cfg Config

	mu    sync.Mutex
	links map[[2]string]*link
}

// NewEstimator builds an estimator wired as cfg says.
func NewEstimator(cfg Config) *Estimator {
	return &Estimator{cfg: cfg, links: map[[2]string]*link{}}
}

func (e *Estimator) linkLocked(src, dst string) *link {
	key := [2]string{src, dst}
	l := e.links[key]
	if l == nil {
		l = &link{ring: make([]float64, 0, window)}
		e.links[key] = l
	}
	return l
}

func (e *Estimator) registry() *obs.Registry {
	if e.cfg.Registry == nil {
		return nil
	}
	return e.cfg.Registry()
}

// ObserveTransfer records one completed transfer of bytes over seconds of
// wall clock between the named sites. Non-positive sizes or durations are
// ignored (a zero-length exchange carries no rate information).
func (e *Estimator) ObserveTransfer(src, dst string, bytes, seconds float64) {
	if e == nil || bytes <= 0 || seconds <= 0 {
		return
	}
	bps := bytes * 8 / seconds
	e.mu.Lock()
	l := e.linkLocked(src, dst)
	if l.samples == 0 {
		l.ewmaBps = bps
	} else {
		l.ewmaBps += alpha * (bps - l.ewmaBps)
	}
	l.samples++
	l.bytes += bytes
	if len(l.ring) < window {
		l.ring = append(l.ring, bps)
	} else {
		l.ring[l.next] = bps
	}
	l.next = (l.next + 1) % window
	ewma := l.ewmaBps
	rtt, hasRTT := l.rttSec, l.rttSamples > 0
	e.mu.Unlock()

	if reg := e.registry(); reg != nil {
		labels := map[string]string{"src": src, "dst": dst}
		reg.Gauge("link_throughput_bps", labels).Set(ewma)
		reg.Counter("link_samples_total", labels).Add(1)
		if hasRTT {
			reg.Gauge("link_rtt_sec", labels).Set(rtt)
		}
	}
}

// ObserveRTT records one round-trip-time sample for the site pair.
func (e *Estimator) ObserveRTT(src, dst string, rttSec float64) {
	if e == nil || rttSec <= 0 {
		return
	}
	e.mu.Lock()
	l := e.linkLocked(src, dst)
	if l.rttSamples == 0 {
		l.rttSec = rttSec
	} else {
		l.rttSec += alpha * (rttSec - l.rttSec)
	}
	l.rttSamples++
	rtt := l.rttSec
	e.mu.Unlock()

	if reg := e.registry(); reg != nil {
		reg.Gauge("link_rtt_sec", map[string]string{"src": src, "dst": dst}).Set(rtt)
	}
}

// Estimates snapshots every observed link, sorted by source then
// destination for deterministic output.
func (e *Estimator) Estimates() []Estimate {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]Estimate, 0, len(e.links))
	for key, l := range e.links {
		out = append(out, l.estimateLocked(key[0], key[1]))
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Estimate returns the current estimate for one directed site pair;
// ok=false when the pair has never recorded a transfer sample (an
// RTT-only entry carries no throughput and does not count). Nil
// estimators know nothing.
func (e *Estimator) Estimate(src, dst string) (Estimate, bool) {
	if e == nil {
		return Estimate{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.links[[2]string{src, dst}]
	if l == nil || l.samples == 0 {
		return Estimate{}, false
	}
	return l.estimateLocked(src, dst), true
}

// estimateLocked builds the link's estimate; the estimator's lock is held.
func (l *link) estimateLocked(src, dst string) Estimate {
	est := Estimate{
		Src: src, Dst: dst,
		ThroughputBps: l.ewmaBps,
		RTTSec:        l.rttSec,
		Samples:       l.samples,
		RTTSamples:    l.rttSamples,
		Bytes:         l.bytes,
	}
	if len(l.ring) > 0 {
		est.P50Bps = percentile(l.ring, 0.50)
		est.P95Bps = percentile(l.ring, 0.95)
	}
	return est
}

// percentile computes the nearest-rank p-quantile of samples (copied,
// not in place).
func percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// ConfiguredLink names one link the deployment's topology promises,
// against which observed throughput is measured for drift.
type ConfiguredLink struct {
	Src string
	Dst string
	Bps float64
}

// ConfiguredDCLinks lists every ordered cross-DC pair's configured
// bandwidth under topo, the promises a report's network drift is
// measured against, keyed by DC name.
func ConfiguredDCLinks(topo *topology.Topology) []ConfiguredLink {
	if topo == nil {
		return nil
	}
	names := topo.DCNames()
	var out []ConfiguredLink
	for a := 0; a < topo.NumDCs(); a++ {
		for b := 0; b < topo.NumDCs(); b++ {
			if a == b {
				continue
			}
			if bps := topo.InterBps(topology.DCID(a), topology.DCID(b)); bps > 0 {
				out = append(out, ConfiguredLink{Src: names[a], Dst: names[b], Bps: bps})
			}
		}
	}
	return out
}

// finitePositive reports whether v is a usable rate: finite and above
// zero. Zero, negative, NaN, and ±Inf all disqualify — dividing by them
// yields drift values encoding/json refuses to marshal.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// ReportSection merges the estimator's observed links with the
// configured ones into the run report's network section. Every
// configured link appears — with a drift ratio (observed EWMA /
// configured bps; zero when unobserved) — and so does every observed
// link, with drift only when its pair is configured. Pairs whose
// configured rate is zero, negative, or non-finite are treated as
// unconfigured, and a drift that would come out non-finite is omitted:
// the section must always survive json.Marshal. Returns nil when there
// is nothing to report.
func ReportSection(e *Estimator, configured []ConfiguredLink) *obs.NetworkStats {
	conf := map[[2]string]float64{}
	for _, c := range configured {
		if finitePositive(c.Bps) {
			conf[[2]string{c.Src, c.Dst}] = c.Bps
		}
	}
	seen := map[[2]string]bool{}
	var links []obs.LinkStats
	for _, est := range e.Estimates() {
		key := [2]string{est.Src, est.Dst}
		seen[key] = true
		ls := obs.LinkStats{
			Src: est.Src, Dst: est.Dst,
			ThroughputBps: est.ThroughputBps,
			P50Bps:        est.P50Bps,
			P95Bps:        est.P95Bps,
			RTTSec:        est.RTTSec,
			Samples:       est.Samples,
			Bytes:         est.Bytes,
		}
		if bps, ok := conf[key]; ok {
			ls.ConfiguredBps = bps
			if d := est.ThroughputBps / bps; !math.IsNaN(d) && !math.IsInf(d, 0) {
				ls.Drift = &d
			}
		}
		links = append(links, ls)
	}
	for key, bps := range conf {
		if seen[key] {
			continue
		}
		d := 0.0
		links = append(links, obs.LinkStats{
			Src: key[0], Dst: key[1],
			ConfiguredBps: bps, Drift: &d,
		})
	}
	if len(links) == 0 {
		return nil
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Src != links[j].Src {
			return links[i].Src < links[j].Src
		}
		return links[i].Dst < links[j].Dst
	})
	return &obs.NetworkStats{Links: links}
}

// Summary renders the one-line link digest wansim prints after a run:
// how many pairs were measured, the busiest pair by bytes, and — when
// drift is known — the observed/configured range.
func Summary(n *obs.NetworkStats) string {
	if n == nil || len(n.Links) == 0 {
		return "links: none observed"
	}
	measured := 0
	var busiest *obs.LinkStats
	minDrift, maxDrift := math.Inf(1), math.Inf(-1)
	hasDrift := false
	for i := range n.Links {
		l := &n.Links[i]
		if l.Samples > 0 {
			measured++
			if busiest == nil || l.Bytes > busiest.Bytes {
				busiest = l
			}
			if l.Drift != nil {
				hasDrift = true
				if *l.Drift < minDrift {
					minDrift = *l.Drift
				}
				if *l.Drift > maxDrift {
					maxDrift = *l.Drift
				}
			}
		}
	}
	if busiest == nil {
		return fmt.Sprintf("links: 0 of %d configured pairs observed", len(n.Links))
	}
	s := fmt.Sprintf("links: %d pairs measured, busiest %s->%s %s over %s",
		measured, busiest.Src, busiest.Dst,
		fmtBps(busiest.ThroughputBps), fmtBytes(busiest.Bytes))
	if hasDrift {
		s += fmt.Sprintf(", drift %.2fx-%.2fx of configured", minDrift, maxDrift)
	}
	return s
}

func fmtBps(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbit/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbit/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f Kbit/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bit/s", bps)
	}
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
