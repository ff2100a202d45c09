// Package netobs is the WAN link observatory: a passive estimator that
// turns the transfer samples the system already produces into a site-pair
// link estimate matrix (one EWMA throughput, a sample count and a byte
// count per directed pair). Both backends feed it — the live cluster from
// measured exchange wall-clock, the simulator from modeled flow
// completions — so the report's network section has the same shape in
// both, and the bandwidth aggregator policy reads measured link capacity
// instead of configured numbers. The matrix is recorded once, in the run
// report's network section: GET /report serves it mid-run, and /metrics
// renders it as report_link_* gauges.
package netobs

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/topology"
)

// Config wires an Estimator. It has no fields, since the estimate is read
// only through Estimates and ReportSection; it stays because the benchmark
// module (perf/) builds its estimator with it.
type Config struct{}

// alpha is the weight every link's EWMA gives a new throughput sample.
const alpha = 0.2

// link is the per-(src,dst) accumulator.
type link struct {
	ewmaBps float64
	samples int64
	bytes   float64
}

// estimate is one site pair's current link estimate.
type estimate struct {
	Src           string
	Dst           string
	ThroughputBps float64
	Samples       int64
	Bytes         float64
}

// Estimator maintains link estimates per directed site pair. It is safe
// for concurrent use; a nil *Estimator ignores observations and reports
// nothing, so callers can leave it unwired.
type Estimator struct {
	mu    sync.Mutex
	links map[[2]string]*link
}

// NewEstimator builds an empty estimator.
func NewEstimator(Config) *Estimator {
	return &Estimator{links: map[[2]string]*link{}}
}

func (e *Estimator) linkLocked(src, dst string) *link {
	key := [2]string{src, dst}
	l := e.links[key]
	if l == nil {
		l = &link{}
		e.links[key] = l
	}
	return l
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
	e.mu.Unlock()
}

// Estimates snapshots every observed link, sorted by source then
// destination for deterministic output.
func (e *Estimator) Estimates() []estimate {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]estimate, 0, len(e.links))
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
// ok=false when the pair has never recorded a transfer sample. Nil
// estimators know nothing.
func (e *Estimator) Estimate(src, dst string) (estimate, bool) {
	if e == nil {
		return estimate{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	l := e.links[[2]string{src, dst}]
	if l == nil {
		return estimate{}, false
	}
	return l.estimateLocked(src, dst), true
}

// estimateLocked builds the link's estimate; the estimator's lock is held.
func (l *link) estimateLocked(src, dst string) estimate {
	return estimate{Src: src, Dst: dst, ThroughputBps: l.ewmaBps, Samples: l.samples, Bytes: l.bytes}
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
