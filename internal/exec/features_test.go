package exec

import (
	"fmt"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

func TestActionSaveSkipsResultTraffic(t *testing.T) {
	topo := topology.SixRegionEC2()
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		return wordCount(spreadInput(g, topo, 10*mb), 8)
	}
	eng := New(topo, 1, Config{})
	collected, err := eng.Run(build(), ActionCollect, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := New(topo, 1, Config{})
	saved, err := eng2.Run(build(), ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if canon(saved.Records) != canon(collected.Records) {
		t.Fatal("save and collect disagree on records")
	}
	if saved.CrossDCByTag[TagResult] >= collected.CrossDCByTag[TagResult] && collected.CrossDCByTag[TagResult] > 0 {
		t.Fatalf("save result traffic %v not below collect %v",
			saved.CrossDCByTag[TagResult], collected.CrossDCByTag[TagResult])
	}
	if saved.Action != ActionSave || collected.Action != ActionCollect {
		t.Fatal("Action not recorded on results")
	}
	total := 0
	for _, c := range saved.Counts {
		total += c
	}
	if total != len(saved.Records) {
		t.Fatalf("save counts %d != records %d", total, len(saved.Records))
	}
}

// buildSkewedReduce makes a job whose input is concentrated in one DC so
// aggregator policies differ observably.
func buildSkewedReduce(topo *topology.Topology, heavyDC topology.DCID) *rdd.RDD {
	g := rdd.NewGraph()
	var parts []rdd.InputPartition
	for dc := 0; dc < topo.NumDCs(); dc++ {
		n := 1
		if topology.DCID(dc) == heavyDC {
			n = 4
		}
		hosts := topo.HostsIn(topology.DCID(dc))
		for i := 0; i < n; i++ {
			parts = append(parts, rdd.InputPartition{
				Host: hosts[i%len(hosts)], ModeledBytes: 20 * mb,
				Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d.%d", dc, i), 1)},
			})
		}
	}
	in := g.Input("in", parts)
	job := in.ReduceByKey("r", 4, sum)
	dag.AutoAggregate(job)
	return job
}

func TestAggregatorPolicies(t *testing.T) {
	topo := topology.SixRegionEC2()
	heavy := topology.DCID(3)
	run := func(policy plan.AggregatorPolicy, seed int64) float64 {
		eng := New(topo, seed, Config{AggregatorPolicy: policy, ComputeNoise: -1})
		res, err := eng.Run(buildSkewedReduce(topo, heavy), ActionSave, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.CrossDCBytes
	}
	best := run(plan.AggregatorBest, 1)
	worst := run(plan.AggregatorWorst, 1)
	if best >= worst {
		t.Fatalf("Eq. 2 rule moved %v bytes, worst-case rule %v; want best < worst", best, worst)
	}
	// Random differs across seeds (eventually).
	r1, diff := run(plan.AggregatorRandom, 1), false
	for seed := int64(2); seed <= 6; seed++ {
		if run(plan.AggregatorRandom, seed) != r1 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("random aggregator identical across 6 seeds")
	}
}

func TestUnknownAggregatorPolicyPanics(t *testing.T) {
	topo := topology.SixRegionEC2()
	eng := New(topo, 1, Config{AggregatorPolicy: plan.AggregatorPolicy(42)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = eng.Run(buildSkewedReduce(topo, 0), ActionSave, RunOptions{})
}

func TestTransferToTopKSpreadsReceivers(t *testing.T) {
	topo := topology.SixRegionEC2()
	g := rdd.NewGraph()
	var parts []rdd.InputPartition
	// All input in DC 0/1 heavy, so top-2 = {0, 1}.
	for i := 0; i < 12; i++ {
		dc := topology.DCID(i % 6)
		hosts := topo.HostsIn(dc)
		parts = append(parts, rdd.InputPartition{
			Host: hosts[i%len(hosts)], ModeledBytes: float64(12-i) * 5 * mb,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", i), 1)},
		})
	}
	in := g.Input("in", parts)
	job := in.TransferToTopK(2).ReduceByKey("r", 4, sum)
	eng := New(topo, 1, Config{ComputeNoise: -1})
	res, err := eng.Run(job, ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 12 {
		t.Fatalf("records = %d, want 12", len(res.Records))
	}
	// With K=2 the shuffle input is split across two DCs, so some
	// cross-DC shuffle fetch remains (unlike K=1's zero).
	g2 := rdd.NewGraph()
	parts2 := make([]rdd.InputPartition, len(parts))
	copy(parts2, parts)
	in2 := g2.Input("in", parts2)
	job2 := in2.TransferToTopK(1).ReduceByKey("r", 4, sum)
	eng2 := New(topo, 1, Config{ComputeNoise: -1})
	res2, err := eng2.Run(job2, ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CrossDCByTag[TagShuffle] > 0 {
		t.Fatalf("K=1 left cross-DC fetches: %v", res2.CrossDCByTag)
	}
	if res.CrossDCByTag[TagShuffle] <= 0 {
		t.Fatalf("K=2 shows no cross-DC fetch between the two aggregators: %v", res.CrossDCByTag)
	}
}

func TestNoPipeliningDelaysPushes(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	dcB, _ := topo.DCByName("dc-b")
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		var parts []rdd.InputPartition
		hosts := topo.HostsIn(0)
		// Staggered partitions so pipelining matters.
		for i := 0; i < 4; i++ {
			parts = append(parts, rdd.InputPartition{
				Host: hosts[i%2], ModeledBytes: float64(i+1) * 30 * mb,
				Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", i), 1)},
			})
		}
		in := g.Input("in", parts)
		return in.TransferTo(dcB).ReduceByKey("r", 2, sum)
	}
	run := func(noPipe bool) float64 {
		eng := New(topo, 1, Config{NoPipelining: noPipe, ComputeNoise: -1, ComputeBps: 20e6})
		res, err := eng.Run(build(), ActionSave, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT
	}
	pipelined := run(false)
	barrier := run(true)
	if pipelined >= barrier {
		t.Fatalf("pipelined %v not faster than barrier %v", pipelined, barrier)
	}
}

// TestCachedTransferSkipsRepush covers Sec. IV-E's "cache after
// aggregation": once a transferred-and-cached dataset is materialized,
// later jobs must read the cached copies instead of re-running the push
// phases.
func TestCachedTransferSkipsRepush(t *testing.T) {
	topo := topology.SixRegionEC2()
	g := rdd.NewGraph()
	var parts []rdd.InputPartition
	for i, h := range topo.Workers() {
		parts = append(parts, rdd.InputPartition{
			Host: h, ModeledBytes: 10 * mb,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", i), 1)},
		})
	}
	in := g.Input("in", parts)
	moved := in.TransferTo(0).Cache()
	eng := New(topo, 1, Config{})

	// Job 1 materializes the cache behind the transfer.
	res1, err := eng.Run(moved, ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CrossDCByTag[TagPush] <= 0 {
		t.Fatalf("first job did not push: %v", res1.CrossDCByTag)
	}

	// Job 2 consumes the cached transfer: no pushes may repeat, and all
	// computation should read locally in DC 0.
	job2 := moved.CountByKey("counts", 4)
	res2, err := eng.Run(job2, ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.CrossDCByTag[TagPush]; got > 0 {
		t.Fatalf("second job re-pushed %v bytes through the cached transfer", got)
	}
	if got := res2.CrossDCByTag[TagCache]; got > 0 {
		t.Fatalf("second job read cache across DCs: %v", got)
	}
	if len(res2.Records) != 24 {
		t.Fatalf("records = %d, want 24", len(res2.Records))
	}
}

func TestRunawayGuardSurfacesError(t *testing.T) {
	// Sanity: a healthy job is far below the step cap; the guard should
	// never fire here.
	topo := topology.TwoDCMicro(2, 0.25)
	g := rdd.NewGraph()
	job := spreadInput(g, topo, mb)
	eng := New(topo, 1, Config{})
	if _, err := eng.Run(job, ActionCount, RunOptions{}); err != nil {
		t.Fatal(err)
	}
}
