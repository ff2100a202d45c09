package plan

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"wanshuffle/internal/netobs"
	"wanshuffle/internal/obs"
)

// AggregatorPolicy selects the automatic-aggregation rule (ablations of
// the paper's Sec. III-B analysis). It is shared by both backends so that
// ablation experiments mean the same thing everywhere.
type AggregatorPolicy int

// Aggregator policies.
const (
	// AggregatorBest picks the site with the largest input share — the
	// paper's rule (Eq. 2 optimum).
	AggregatorBest AggregatorPolicy = iota
	// AggregatorRandom picks a seeded random site.
	AggregatorRandom
	// AggregatorWorst picks the site with the smallest input share (the
	// Eq. 2 pessimum), bounding how much the selection rule matters.
	AggregatorWorst
	// AggregatorBandwidth picks the site with the smallest estimated
	// shuffle transfer time: per-source bytes over the source→candidate
	// link bandwidth, bottlenecked by the slowest source. Eq. 2 assumes
	// uniform links; over the 80–300 Mbps asymmetric WAN the paper itself
	// measures, the byte-optimal site is not always the time-optimal one.
	AggregatorBandwidth
)

// String implements fmt.Stringer; the names double as flag values and
// report labels.
func (p AggregatorPolicy) String() string {
	switch p {
	case AggregatorBest:
		return "best"
	case AggregatorRandom:
		return "random"
	case AggregatorWorst:
		return "worst"
	case AggregatorBandwidth:
		return "bandwidth"
	default:
		return fmt.Sprintf("AggregatorPolicy(%d)", int(p))
	}
}

// ParseAggregatorPolicy maps a flag value to its policy; empty means
// AggregatorBest.
func ParseAggregatorPolicy(s string) (AggregatorPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "best":
		return AggregatorBest, nil
	case "random":
		return AggregatorRandom, nil
	case "worst":
		return AggregatorWorst, nil
	case "bandwidth":
		return AggregatorBandwidth, nil
	default:
		return 0, fmt.Errorf("unknown aggregator policy %q (best | random | worst | bandwidth)", s)
	}
}

// Bandwidth estimate sources, strongest to weakest: a measured EWMA from
// the link observatory, the configured topology's promised rate, or the
// uniform fallback when neither knows the pair.
const (
	bandwidthMeasured   = "measured"
	BandwidthConfigured = "configured"
	bandwidthUniform    = "uniform"
)

// defaultUniformBps is the bandwidth assumed for site pairs with neither
// a measured nor a configured estimate — the middle of the paper's
// observed 80–300 Mbps inter-DC band. Within one decision only relative
// costs matter, so the exact value only matters when uniform pairs mix
// with known ones.
const defaultUniformBps = 100e6

// LinkCostProvider supplies per-directed-site-pair bandwidth estimates
// for the bandwidth-aware cost model. Implementations return the
// estimate's source (bandwidthMeasured or BandwidthConfigured); ok=false
// means the pair is unknown and the caller falls back to
// defaultUniformBps.
type LinkCostProvider interface {
	LinkBps(src, dst int) (bps float64, source string, ok bool)
}

// measuredLinks is the LinkCostProvider both backends hand the planner:
// integer sites over a netobs.Estimator keyed by site name, falling back
// to the configured topology's rate.
type measuredLinks struct {
	est        *netobs.Estimator
	sites      int
	name       func(site int) string
	configured func(src, dst int) float64
}

// MeasuredLinkCosts adapts a link estimator to LinkCostProvider over sites
// 0..sites-1: a pair's measured EWMA when the estimator (keyed by
// name(site)) has transfer samples for it, else its configured rate when
// configured reports a positive one. ok=false — out-of-range and self pairs
// included — leaves the pair to the planner's uniform fallback.
func MeasuredLinkCosts(est *netobs.Estimator, sites int, name func(site int) string, configured func(src, dst int) float64) LinkCostProvider {
	return measuredLinks{est: est, sites: sites, name: name, configured: configured}
}

// LinkBps implements LinkCostProvider.
func (l measuredLinks) LinkBps(src, dst int) (float64, string, bool) {
	if src < 0 || dst < 0 || src >= l.sites || dst >= l.sites || src == dst {
		return 0, "", false
	}
	if est, ok := l.est.Estimate(l.name(src), l.name(dst)); ok && est.ThroughputBps > 0 {
		return est.ThroughputBps, bandwidthMeasured, true
	}
	if bps := l.configured(src, dst); bps > 0 {
		return bps, BandwidthConfigured, true
	}
	return 0, "", false
}

// candidateCost is one candidate aggregator site's estimated shuffle
// cost under the bandwidth-aware model.
type candidateCost struct {
	// Site is the candidate's index; InputBytes its (sanitized) input
	// share.
	Site       int
	InputBytes float64
	// CostSec estimates the shuffle's transfer time with this candidate
	// as aggregator: max over remote sources of bytes/bandwidth — the
	// bottleneck source, since pushes overlap.
	CostSec float64
	// Source is the weakest bandwidth source among the links the
	// estimate used (measured < configured < uniform); empty when the
	// candidate needs no cross-site transfer.
	Source string
}

// sourceRank orders bandwidth sources strongest-first for the "weakest
// link" attribution on a candidate's cost.
func sourceRank(s string) int {
	switch s {
	case bandwidthMeasured:
		return 0
	case BandwidthConfigured:
		return 1
	default:
		return 2
	}
}

// sanitizeSizes copies bySite with every non-finite or negative entry
// treated as 0 bytes: byte sizes cannot legitimately be NaN, infinite,
// or negative, and letting them through would poison ranking (NaN never
// compares) or collide with extraction sentinels.
func sanitizeSizes(bySite []float64) []float64 {
	out := make([]float64, len(bySite))
	for i, v := range bySite {
		if v > 0 && !math.IsInf(v, 1) {
			out[i] = v
		}
	}
	return out
}

// estimateTransferCosts computes every candidate site's estimated shuffle
// transfer time from the input shares and the provider's link bandwidth:
// cost(d) = max over sources s≠d with bytes of bySite[s]·8 / bps(s→d).
// Pairs the provider does not know fall back to defaultUniformBps. A nil
// provider prices every pair uniformly, which reduces the ranking to the
// paper's byte rule.
func estimateTransferCosts(bySite []float64, links LinkCostProvider) []candidateCost {
	sizes := sanitizeSizes(bySite)
	out := make([]candidateCost, len(sizes))
	for d := range sizes {
		cc := candidateCost{Site: d, InputBytes: sizes[d]}
		for s := range sizes {
			if s == d || sizes[s] <= 0 {
				continue
			}
			bps, source, ok := 0.0, "", false
			if links != nil {
				bps, source, ok = links.LinkBps(s, d)
			}
			if !ok || bps <= 0 || math.IsNaN(bps) || math.IsInf(bps, 0) {
				bps, source = defaultUniformBps, bandwidthUniform
			}
			if cost := sizes[s] * 8 / bps; cost > cc.CostSec {
				cc.CostSec = cost
			}
			if cc.Source == "" || sourceRank(source) > sourceRank(cc.Source) {
				cc.Source = source
			}
		}
		out[d] = cc
	}
	return out
}

// SpreadTopK spreads partition part round-robin over the top-k ranked
// sites (Sec. III-B's "subset of datacenters" generalization); k outside
// [1, len(rank)] is clamped. An empty rank yields -1, the driver's
// "no aggregator" sentinel, instead of indexing into nothing.
func SpreadTopK[S ~int](rank []S, k, part int) S {
	if len(rank) == 0 {
		return -1
	}
	if k < 1 {
		k = 1
	}
	if k > len(rank) {
		k = len(rank)
	}
	return rank[part%k]
}

// ChooseAggregator makes one automatic aggregator choice (Sec. III-B /
// IV-D) for both execution cores: it ranks the sites (datacenters for the
// simulator, workers for the live cluster) holding bySite input bytes
// under policy and assembles the decision record around the head of the
// rank. Inputs are sanitized first (NaN, ±Inf, and negative shares count
// as 0 bytes), so no degenerate input can break the order:
//
//   - AggregatorBest: descending share, ties toward the lowest site index —
//     the head is Eq. (2)'s optimum (the simulator's centralized scheme
//     takes it too);
//   - AggregatorWorst: that order reversed;
//   - AggregatorRandom: that order permuted by shuffleFn, the backend's
//     seeded RNG (required for this policy only);
//   - AggregatorBandwidth: ascending estimated transfer time over links,
//     ties broken as under AggregatorBest, so under uniform bandwidth the
//     head is the Eq. (2) optimum.
//
// links only annotates the record under the byte policies; names
// (optional) labels sites. An unknown policy panics. An empty bySite
// yields an empty rank and a zero decision.
func ChooseAggregator[S ~int](shuffleID, stageID int, bySite []float64, policy AggregatorPolicy,
	links LinkCostProvider, shuffleFn func(n int, swap func(i, j int)), names func(int) string) ([]S, obs.PlacementDecision) {
	costs := estimateTransferCosts(bySite, links)
	order := slices.Clone(costs)
	byShare := func(a, b candidateCost) int {
		if c := cmp.Compare(b.InputBytes, a.InputBytes); c != 0 {
			return c
		}
		return cmp.Compare(a.Site, b.Site)
	}
	switch policy {
	case AggregatorBest:
		slices.SortFunc(order, byShare)
	case AggregatorWorst:
		slices.SortFunc(order, byShare)
		slices.Reverse(order)
	case AggregatorRandom:
		if shuffleFn == nil {
			panic("plan: AggregatorRandom needs a shuffle function")
		}
		slices.SortFunc(order, byShare)
		shuffleFn(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	case AggregatorBandwidth:
		slices.SortFunc(order, func(a, b candidateCost) int {
			if c := cmp.Compare(a.CostSec, b.CostSec); c != 0 {
				return c
			}
			return byShare(a, b)
		})
	default:
		panic(fmt.Sprintf("plan: unknown aggregator policy %d", policy))
	}
	if len(order) == 0 {
		return nil, obs.PlacementDecision{}
	}
	rank := make([]S, len(order))
	for i, c := range order {
		rank[i] = S(c.Site)
	}
	return rank, newPlacementDecision(shuffleID, stageID, order[0].Site, costs, names)
}

// newPlacementDecision assembles the run report's record of one automatic
// aggregator choice from the candidate costs. names (optional) labels
// sites — DC names in the simulator, worker labels in the live cluster.
func newPlacementDecision(shuffleID, stageID, chosen int, costs []candidateCost, names func(int) string) obs.PlacementDecision {
	d := obs.PlacementDecision{Shuffle: shuffleID, Stage: stageID, Chosen: chosen}
	for _, c := range costs {
		pc := obs.PlacementCandidate{
			Site: c.Site, InputBytes: c.InputBytes,
			CostSec: c.CostSec, Source: c.Source,
		}
		if names != nil {
			pc.SiteName = names(c.Site)
		}
		d.Candidates = append(d.Candidates, pc)
		if c.Site == chosen {
			d.CostSec = c.CostSec
			d.Source = c.Source
			d.ChosenSite = pc.SiteName
		}
	}
	return d
}
