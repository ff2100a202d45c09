package livecluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// hubTriad builds the placement acceptance topology: two fast spokes
// through the hub dc-b, one slow direct path between dc-a and dc-c. One
// worker per DC, so worker i is site i on both backends.
func hubTriad() *topology.Topology {
	b := topology.NewBuilder()
	a := b.AddDC("dc-a", 1, 2, 1*topology.Gbps)
	hub := b.AddDC("dc-b", 1, 2, 1*topology.Gbps)
	c := b.AddDC("dc-c", 1, 2, 1*topology.Gbps)
	b.Link(a, hub, 160*topology.Mbps, 10*topology.Millisecond)
	b.Link(hub, c, 160*topology.Mbps, 10*topology.Millisecond)
	b.Link(a, c, 16*topology.Mbps, 80*topology.Millisecond)
	b.IntraLatency(0.5 * topology.Millisecond)
	b.Driver(a)
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// buildSkewedShuffle puts ~45 KB of input on site 0, ~10 KB on the hub
// site 1, and ~40 KB on site 2 — in both backends' size estimates:
// ModeledBytes drives the simulator's byte vector, the records' actual
// size drives the live cluster's, and both preserve the 0 > 2 > 1
// ordering. The byte rule must aggregate at site 0, the bandwidth rule
// at the hub.
func buildSkewedShuffle(hosts []topology.HostID) *rdd.RDD {
	shares := []int{45000, 10000, 40000}
	g := rdd.NewGraph()
	parts := make([]rdd.InputPartition, len(shares))
	for p, n := range shares {
		parts[p] = rdd.InputPartition{
			Host: hosts[p], ModeledBytes: float64(n),
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", p), strings.Repeat("x", n))},
		}
	}
	return g.Input("in", parts).GroupByKey("g", 3)
}

// TestPlacementParityAcrossBackends is the ISSUE's parity property: the
// same lineage over the same link matrix must elect the same aggregator
// on the simulator and on the live cluster, for the byte rule and the
// bandwidth rule alike — and the two rules must disagree with each
// other on this topology, with bandwidth the cheaper choice.
func TestPlacementParityAcrossBackends(t *testing.T) {
	topo := hubTriad()

	simChoice := func(policy plan.AggregatorPolicy) int {
		job := buildSkewedShuffle(topo.Workers())
		dag.AutoAggregate(job)
		eng := exec.New(topo, 1, exec.Config{AggregatorPolicy: policy})
		if _, err := simulate(eng, job); err != nil {
			t.Fatal(err)
		}
		decs := eng.Events.Placements()
		if len(decs) == 0 {
			t.Fatalf("sim %v: no placement recorded", policy)
		}
		return decs[0].Chosen
	}
	liveChoice := func(policy plan.AggregatorPolicy) int {
		cluster, err := New(Config{
			Workers: 3, WANTopology: topo,
			AggregatorPolicy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		_, stats, err := cluster.Run(pushed(buildSkewedShuffle(topo.Workers())))
		if err != nil {
			t.Fatal(err)
		}
		decs := stats.Placements()
		if len(decs) == 0 {
			t.Fatalf("live %v: no placement recorded", policy)
		}
		return decs[0].Chosen
	}

	for _, policy := range []plan.AggregatorPolicy{plan.AggregatorBest, plan.AggregatorBandwidth} {
		sim, live := simChoice(policy), liveChoice(policy)
		if sim != live {
			t.Fatalf("%v: sim chose site %d, live chose site %d", policy, sim, live)
		}
	}
	if best, bw := simChoice(plan.AggregatorBest), simChoice(plan.AggregatorBandwidth); best != 0 || bw != 1 {
		t.Fatalf("policies did not diverge on the hub triad: best=%d (want 0), bandwidth=%d (want 1)", best, bw)
	}
}

// TestLivePlacementReportAndCosts runs the bandwidth policy end to end
// on the shaped loopback cluster and checks the run report's placement
// section: the hub is named as chosen, the decision is cheaper than the
// byte rule's candidate, and every candidate carries a finite cost.
func TestLivePlacementReportAndCosts(t *testing.T) {
	topo := hubTriad()
	cluster, err := New(Config{
		Workers: 3, WANTopology: topo,
		AggregatorPolicy: plan.AggregatorBandwidth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want := canon(rdd.CollectLocal(buildSkewedShuffle(topo.Workers())))
	out, stats, err := cluster.Run(pushed(buildSkewedShuffle(topo.Workers())))
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("bandwidth-placed run diverges from reference")
	}

	rep := stats.RunReport("skew", nil)
	if rep.Placement == nil || rep.Placement.Policy != "bandwidth" || len(rep.Placement.Decisions) == 0 {
		t.Fatalf("run report placement section = %+v", rep.Placement)
	}
	d := rep.Placement.Decisions[0]
	if d.Chosen != 1 || d.ChosenSite != "w1" {
		t.Fatalf("chose site %d (%q), want the hub w1", d.Chosen, d.ChosenSite)
	}
	if d.Source != plan.BandwidthConfigured {
		t.Fatalf("decision source = %q, want configured (decision precedes any transfer)", d.Source)
	}
	if len(d.Candidates) != 3 {
		t.Fatalf("candidates = %+v, want one per worker", d.Candidates)
	}
	var byteRuleCost float64
	for _, c := range d.Candidates {
		if math.IsNaN(c.CostSec) || math.IsInf(c.CostSec, 0) {
			t.Fatalf("candidate %+v has non-finite cost", c)
		}
		if c.SiteName == "" {
			t.Fatalf("candidate %+v lacks a site label", c)
		}
		if c.Site == 0 {
			byteRuleCost = c.CostSec
		}
	}
	if d.CostSec >= byteRuleCost {
		t.Fatalf("bandwidth pick (%.3fs) not cheaper than the byte-rule candidate (%.3fs)", d.CostSec, byteRuleCost)
	}

	// The pushes landed where the decision says they did.
	for w, n := range stats.ShardsByWorker {
		if (n > 0) != (w == 1) {
			t.Fatalf("map outputs stored per worker %v, want all on the hub w1", stats.ShardsByWorker)
		}
	}
}

// TestLiveRejectsRandomPolicy pins the validation: the live path carries
// no seeded RNG, so AggregatorRandom must be refused at construction.
func TestLiveRejectsRandomPolicy(t *testing.T) {
	_, err := New(Config{Workers: 2, AggregatorPolicy: plan.AggregatorRandom})
	if err == nil || !strings.Contains(err.Error(), "not supported on the live path") {
		t.Fatalf("New(random) err = %v, want live-path rejection", err)
	}
	if _, err := New(Config{Workers: 2, AggregatorPolicy: plan.AggregatorPolicy(42)}); err == nil {
		t.Fatal("New accepted an unknown aggregator policy")
	}
}
