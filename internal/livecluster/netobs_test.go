package livecluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wanshuffle/internal/exec"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// asymmetricTriad builds a three-DC topology with one worker host per DC
// and a deliberately skewed WAN: the a-b path is tenfold faster than any
// path touching dc-c. Worker i maps round-robin onto DC i.
func asymmetricTriad() *topology.Topology {
	b := topology.NewBuilder()
	a := b.AddDC("dc-a", 1, 2, 1*topology.Gbps)
	bb := b.AddDC("dc-b", 1, 2, 1*topology.Gbps)
	c := b.AddDC("dc-c", 1, 2, 1*topology.Gbps)
	b.Link(a, bb, 160*topology.Mbps, 10*topology.Millisecond)
	b.Link(a, c, 16*topology.Mbps, 80*topology.Millisecond)
	b.Link(bb, c, 16*topology.Mbps, 80*topology.Millisecond)
	b.IntraLatency(0.5 * topology.Millisecond)
	b.Driver(a)
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// buildBulkyWordCount is buildWordCount with padded, mostly-unique words
// (so map-side combining cannot collapse the shuffle) and real modeled
// sizes spread over hosts (so the simulator schedules cross-DC flows):
// paced transfers then dominate protocol overhead and the per-link
// throughput ordering is measurable.
func buildBulkyWordCount(parts, reduces int, hosts []topology.HostID) *rdd.RDD {
	pad := strings.Repeat("x", 200)
	g := rdd.NewGraph()
	inputs := make([]rdd.InputPartition, parts)
	for p := 0; p < parts; p++ {
		var recs []rdd.Pair
		for i := 0; i < 120; i++ {
			recs = append(recs, rdd.KV(
				fmt.Sprintf("line%d-%d", p, i),
				fmt.Sprintf("alpha-%d-%d-%s beta-%d-%d-%s", p, i, pad, p, i%5, pad),
			))
		}
		inputs[p] = rdd.InputPartition{Host: hosts[p%len(hosts)], ModeledBytes: 64 << 10, Records: recs}
	}
	in := g.Input("text", inputs)
	words := in.MapMulti("split", func(p rdd.Pair, emit func(rdd.Pair)) {
		for _, w := range strings.Fields(p.Value.(string)) {
			emit(rdd.KV(w, 1))
		}
	})
	return words.ReduceByKey("count", reduces, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
}

// findLink returns the (src,dst) entry of a network section, nil when
// absent.
func findLink(ns *obs.NetworkStats, src, dst string) *obs.LinkStats {
	if ns == nil {
		return nil
	}
	for i := range ns.Links {
		if ns.Links[i].Src == src && ns.Links[i].Dst == dst {
			return &ns.Links[i]
		}
	}
	return nil
}

// TestLinkMatrixReflectsInjectedAsymmetry shapes the loopback data plane
// with a skewed three-DC topology, aggregates on w0 by Eq. 2's tie-break,
// and checks
// the passive estimator recovers the injected ordering: the push over the
// fast dc-a↔dc-b path must measure faster than the one crossing the slow
// dc-c paths, and every configured pair must carry a drift ratio in the
// report.
func TestLinkMatrixReflectsInjectedAsymmetry(t *testing.T) {
	topo := asymmetricTriad()
	cluster, err := New(Config{
		Workers:     3,
		WANTopology: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want := canon(rdd.CollectLocal(buildBulkyWordCount(6, 3, topo.Workers())))
	out, stats, err := cluster.Run(pushed(buildBulkyWordCount(6, 3, topo.Workers())))
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("shaped run diverges from reference")
	}
	// Every worker holds the same input, and Eq. 2 breaks the tie toward
	// the lowest index.
	if decs := stats.Events.Placements(); len(decs) != 1 || decs[0].Chosen != 0 {
		t.Fatalf("placement decisions %+v, want worker 0", decs)
	}

	// The run report's network section is the link estimate matrix.
	ns := stats.RunReport("wordcount", nil).Network
	if ns == nil {
		t.Fatal("run report has no network section after a shaped run")
	}

	// Every configured cross-DC worker pair appears with a drift ratio,
	// observed or not.
	for _, pair := range [][2]string{
		{"w0", "w1"}, {"w1", "w0"},
		{"w0", "w2"}, {"w2", "w0"},
		{"w1", "w2"}, {"w2", "w1"},
	} {
		l := findLink(ns, pair[0], pair[1])
		if l == nil {
			t.Fatalf("configured pair %s->%s missing from matrix: %+v", pair[0], pair[1], ns.Links)
		}
		if l.ConfiguredBps <= 0 || l.Drift == nil {
			t.Fatalf("pair %s->%s lacks configured rate or drift: %+v", pair[0], pair[1], *l)
		}
	}

	// Maps round-robin over the three workers, so w1 and w2 both push to
	// the aggregator on w0 — w1 over the 160 Mbps path, w2 over 16 Mbps.
	fast, slow := findLink(ns, "w1", "w0"), findLink(ns, "w2", "w0")
	if fast.Samples == 0 || slow.Samples == 0 {
		t.Fatalf("push paths unobserved: w1->w0 %d samples, w2->w0 %d samples", fast.Samples, slow.Samples)
	}
	if fast.ThroughputBps <= slow.ThroughputBps {
		t.Fatalf("throughput ordering contradicts injected asymmetry: w1->w0 %.0f bps (160 Mbps path) <= w2->w0 %.0f bps (16 Mbps path)",
			fast.ThroughputBps, slow.ThroughputBps)
	}
	// The paced path cannot measure faster than its configured rate.
	if *slow.Drift > 1.05 {
		t.Fatalf("slow path drift %.2f exceeds 1: measured faster than the pacing allows", *slow.Drift)
	}
}

// TestNetworkSectionParityAcrossBackends runs the same lineage through
// the simulator and the shaped live cluster and requires structurally
// identical network sections: both present, sorted, every observed link
// carrying positive throughput and bytes and the same JSON fields in both
// backends, every configured link carrying drift — so reports from either
// backend diff mechanically.
func TestNetworkSectionParityAcrossBackends(t *testing.T) {
	topo := asymmetricTriad()

	eng := exec.New(topo, 1, exec.Config{})
	if _, err := simulate(eng, buildBulkyWordCount(6, 3, topo.Workers())); err != nil {
		t.Fatal(err)
	}
	simNS := eng.NetworkStats()

	cluster, err := New(Config{Workers: 3, WANTopology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, stats, err := cluster.Run(pushed(buildBulkyWordCount(6, 3, topo.Workers())))
	if err != nil {
		t.Fatal(err)
	}
	liveNS := stats.RunReport("wordcount", nil).Network

	// keySets maps each observed link's JSON field set to one link that
	// has it.
	keySets := map[string]string{}
	for name, ns := range map[string]*obs.NetworkStats{"sim": simNS, "live": liveNS} {
		if ns == nil || len(ns.Links) == 0 {
			t.Fatalf("%s: network section empty", name)
		}
		observed := 0
		for i, l := range ns.Links {
			if i > 0 {
				prev := ns.Links[i-1]
				if prev.Src > l.Src || (prev.Src == l.Src && prev.Dst >= l.Dst) {
					t.Fatalf("%s: links not sorted at %d: %+v", name, i, ns.Links)
				}
			}
			if l.Samples > 0 {
				observed++
				if l.ThroughputBps <= 0 || l.Bytes <= 0 {
					t.Fatalf("%s: observed link %s->%s has degenerate estimate: %+v", name, l.Src, l.Dst, l)
				}
				raw, err := json.Marshal(l)
				if err != nil {
					t.Fatal(err)
				}
				var fields map[string]any
				if err := json.Unmarshal(raw, &fields); err != nil {
					t.Fatal(err)
				}
				keys := make([]string, 0, len(fields))
				for k := range fields {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				keySets[strings.Join(keys, ",")] = fmt.Sprintf("%s %s->%s", name, l.Src, l.Dst)
			}
			if l.ConfiguredBps > 0 && l.Drift == nil {
				t.Fatalf("%s: configured link %s->%s lacks drift", name, l.Src, l.Dst)
			}
		}
		if observed == 0 {
			t.Fatalf("%s: no link observed", name)
		}
	}
	if len(keySets) != 1 {
		t.Fatalf("observed links carry different JSON fields across backends: %v", keySets)
	}
}
