package exec

import (
	"fmt"
	"math"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// hubTriad is the tentpole's acceptance topology: a and c hold most of
// the bytes, but the a<->c path is an order of magnitude slower than the
// two spokes through the hub b. The byte rule (Eq. 2) aggregates at a
// and pays for c's share over the slow link; the bandwidth rule
// aggregates at the hub.
func hubTriad(t *testing.T) *topology.Topology {
	b := topology.NewBuilder()
	a := b.AddDC("dc-a", 1, 4, 1e9)
	hub := b.AddDC("dc-b", 1, 4, 1e9)
	c := b.AddDC("dc-c", 1, 4, 1e9)
	b.Link(a, hub, 160e6, 0.010)
	b.Link(hub, c, 160e6, 0.010)
	b.Link(a, c, 16e6, 0.080)
	b.Driver(a)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// hubTriadJob skews the input so dc-a holds the largest share (45 MB),
// dc-c nearly as much (40 MB), and the hub dc-b little (10 MB).
func hubTriadJob(topo *topology.Topology) *rdd.RDD {
	g := rdd.NewGraph()
	shares := []float64{45 * mb, 10 * mb, 40 * mb}
	var parts []rdd.InputPartition
	for dc := 0; dc < topo.NumDCs(); dc++ {
		parts = append(parts, rdd.InputPartition{
			Host: topo.HostsIn(topology.DCID(dc))[0], ModeledBytes: shares[dc],
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", dc), 1), rdd.KV("shared", 1)},
		})
	}
	job := g.Input("in", parts).ReduceByKey("r", 3, sum)
	dag.AutoAggregate(job)
	return job
}

// TestBandwidthPolicyBeatsByteRuleOnSkewedLinks is the ISSUE's sim-side
// acceptance test: on the hub triad, plan.AggregatorBandwidth must pick a
// different (and cheaper) aggregator than plan.AggregatorBest, and the job
// must finish faster end to end.
func TestBandwidthPolicyBeatsByteRuleOnSkewedLinks(t *testing.T) {
	run := func(policy plan.AggregatorPolicy) (*Result, []obs.PlacementDecision) {
		topo := hubTriad(t)
		eng := New(topo, 1, Config{AggregatorPolicy: policy})
		res, err := eng.run(hubTriadJob(topo), ActionCollect, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res, eng.Events.Placements()
	}
	best, bestDecs := run(plan.AggregatorBest)
	bw, bwDecs := run(plan.AggregatorBandwidth)

	if canon(best.Records) != canon(bw.Records) {
		t.Fatalf("policies disagree on output:\n best %s\n bw   %s", canon(best.Records), canon(bw.Records))
	}
	if len(bestDecs) == 0 || len(bwDecs) == 0 {
		t.Fatalf("placements not recorded: best=%d bw=%d", len(bestDecs), len(bwDecs))
	}
	bd, wd := bestDecs[0], bwDecs[0]
	if bd.Chosen != 0 || bd.ChosenSite != "dc-a" {
		t.Fatalf("byte rule chose %d (%s), want dc-a (largest share)", bd.Chosen, bd.ChosenSite)
	}
	if wd.Chosen != 1 || wd.ChosenSite != "dc-b" {
		t.Fatalf("bandwidth rule chose %d (%s), want dc-b (the hub)", wd.Chosen, wd.ChosenSite)
	}
	if wd.CostSec >= bd.CostSec {
		t.Fatalf("bandwidth cost %.3fs not below byte-rule cost %.3fs", wd.CostSec, bd.CostSec)
	}
	if wd.Source != "configured" {
		t.Fatalf("decision source = %q, want configured (no transfers before the first shuffle)", wd.Source)
	}
	for _, c := range wd.Candidates {
		if math.IsNaN(c.CostSec) || math.IsInf(c.CostSec, 0) || c.SiteName == "" {
			t.Fatalf("candidate %+v lacks a finite cost or site name", c)
		}
	}
	if bw.JCT >= best.JCT {
		t.Fatalf("bandwidth JCT %.3fs not below byte-rule JCT %.3fs", bw.JCT, best.JCT)
	}
}

// TestEngineLinkBps pins the sim backend's fallback chain: measured
// estimates win once transfers have been observed, the configured matrix
// covers the rest, and out-of-range or intra-DC pairs report not-ok.
func TestEngineLinkBps(t *testing.T) {
	topo := hubTriad(t)
	eng := New(topo, 1, Config{})
	if bps, src, ok := eng.linkCosts().LinkBps(0, 2); !ok || src != "configured" || bps != 16e6 {
		t.Fatalf("LinkBps(0,2) = (%v, %q, %v), want configured 16e6", bps, src, ok)
	}
	if _, _, ok := eng.linkCosts().LinkBps(1, 1); ok {
		t.Fatal("intra-DC pair reported a WAN rate")
	}
	if _, _, ok := eng.linkCosts().LinkBps(-1, 2); ok {
		t.Fatal("out-of-range src reported a rate")
	}
	if _, _, ok := eng.linkCosts().LinkBps(0, 3); ok {
		t.Fatal("out-of-range dst reported a rate")
	}
	// A run feeds the link observatory; measured estimates then preempt
	// the configured matrix.
	if _, err := eng.run(hubTriadJob(topo), ActionCollect, runOptions{}); err != nil {
		t.Fatal(err)
	}
	if bps, src, ok := eng.linkCosts().LinkBps(2, 0); ok && src != "measured" {
		t.Fatalf("post-run LinkBps(2,0) = (%v, %q, %v), want measured once samples exist", bps, src, ok)
	}
}
