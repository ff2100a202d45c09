package exec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// runExplicit runs job under the manual scheme (its explicit transfers
// only) or, with agg, the automatic embedding on top of them, and returns
// its canonical output.
func runExplicit(topo *topology.Topology, seed int64, job *rdd.RDD, agg bool) (string, error) {
	if agg {
		dag.AutoAggregate(job)
	}
	res, err := New(topo, seed, Config{}).run(job, ActionSave, runOptions{})
	if err != nil {
		return "", err
	}
	return canon(res.Records), nil
}

// TestCombineAfterExplicitTransfer pushes raw input to a datacenter and maps
// it there before a combining shuffle: the map-side combine must fold the
// mapped records, not the pushed ones (folding first adds the +1 once per key
// per partition instead of once per record).
func TestCombineAfterExplicitTransfer(t *testing.T) {
	topo := topology.SixRegionEC2()
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		hosts := topo.Workers()
		parts := make([]rdd.InputPartition, 4)
		for p := range parts {
			var recs []rdd.Pair
			for i := 0; i < 20; i++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("k%d", i%3), 1))
			}
			parts[p] = rdd.InputPartition{Host: hosts[p*len(hosts)/len(parts)], ModeledBytes: 1e6, Records: recs}
		}
		return g.Input("in", parts).TransferTo(0).
			Map("inc", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, p.Value.(int)+1) }).
			ReduceByKey("sum", 3, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })
	}
	want := canon(rdd.CollectLocal(build()))
	for _, agg := range []bool{false, true} {
		got, err := runExplicit(topo, 1, build(), agg)
		if err != nil {
			t.Fatalf("agg=%v: %v", agg, err)
		}
		if got != want {
			t.Fatalf("agg=%v: got %s, want %s", agg, got, want)
		}
	}
}

// trunkEdges lists the dependency edges a transferTo may be spliced into:
// every edge, since every stage is a chain — a shuffle edge (the transfer
// becomes the map stage's output) or a narrow one on a stage's chain.
func trunkEdges(target *rdd.RDD) []*rdd.Dependency {
	var edges []*rdd.Dependency
	seen := map[int]bool{}
	var walk func(n *rdd.RDD)
	walk = func(n *rdd.RDD) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for i := range n.Deps {
			edges = append(edges, &n.Deps[i])
			walk(n.Deps[i].Parent)
		}
	}
	walk(target)
	return edges
}

// TestQuickExplicitTransferAnywhereOnTrunk splices one explicit transferTo
// into a random trunk edge of a random lineage — below narrow operators,
// directly before a shuffle, onto a leaf — and checks the simulator's output
// against the reference under the manual scheme and the automatic embedding.
// The live cluster rejects explicit transfers, so this is the simulator's
// alone; rdd.RandomLineage itself stays transfer-free.
func TestQuickExplicitTransferAnywhereOnTrunk(t *testing.T) {
	topo := topology.SixRegionEC2()
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())))
		for _, agg := range []bool{false, true} {
			job := rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())
			rng := rand.New(rand.NewSource(seed))
			edges := trunkEdges(job)
			d := edges[rng.Intn(len(edges))]
			d.Parent = d.Parent.TransferTo(topology.DCID(rng.Intn(topo.NumDCs())))
			got, err := runExplicit(topo, seed+1, job, agg)
			if err != nil {
				t.Logf("seed %d agg=%v: %v", seed, agg, err)
				return false
			}
			if got != want {
				t.Logf("seed %d agg=%v: with %s spliced in, output diverges from reference", seed, agg, d.Parent.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
