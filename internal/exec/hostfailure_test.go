package exec

import (
	"fmt"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// hostFailJob: four map partitions on dc-a's hosts, of the given modeled
// sizes, feeding an aggregation whose reducers the caller pins to dc-b.
func hostFailJob(topo *topology.Topology, dcA, dcB topology.DCID, push bool, sizes [4]float64) *rdd.RDD {
	g := rdd.NewGraph()
	hosts := []topology.HostID{}
	for _, h := range topo.HostsIn(dcA) {
		hosts = append(hosts, h)
	}
	var parts []rdd.InputPartition
	for i := range sizes {
		var recs []rdd.Pair
		for w := 0; w < 30; w++ {
			recs = append(recs, rdd.KV(fmt.Sprintf("k%d-%d", i, w), fmt.Sprintf("word%d", w%9)))
		}
		parts = append(parts, rdd.InputPartition{
			Host: hosts[i%len(hosts)], ModeledBytes: sizes[i], Records: recs,
		})
	}
	in := g.Input("in", parts)
	mapped := in.Map("m", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Value.(string), 1) })
	if push {
		mapped = mapped.TransferTo(dcB)
	}
	return mapped.AggregateByKey("agg", 2, sum)
}

// TestMapperHostFailureRecovery is the paper's fault-tolerance claim at
// node granularity: when a mapper's host dies after the map stage, the
// fetch-based baseline loses the shuffle files and must recompute, while
// pushed shuffle input already lives in the reducer's datacenter and the
// job is unaffected.
func TestMapperHostFailureRecovery(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	mapperHost := topo.HostsIn(dcA)[0]

	run := func(push bool, failAt float64) *Result {
		cfg := Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6}
		if failAt > 0 {
			cfg.HostFailures = []HostFailure{{Host: mapperHost, At: failAt}}
		}
		eng := New(topo, 3, cfg)
		res, err := eng.Run(hostFailJob(topo, dcA, dcB, push, even), ActionSave, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Pick a failure instant after the map stage finished but before the
	// job ends.
	clean := run(false, 0)
	failAt := clean.Stages[0].End + 1
	if failAt >= clean.End {
		t.Fatalf("no window to inject failure: stages %v end %v", clean.Stages, clean.End)
	}

	fetchFail := run(false, failAt)
	if canonSet(fetchFail.Records) != canonSet(clean.Records) {
		t.Fatal("fetch-mode recovery produced wrong results")
	}
	if fetchFail.TaskAttempts <= clean.TaskAttempts {
		t.Fatalf("fetch mode did not recompute lost maps: %d vs %d attempts",
			fetchFail.TaskAttempts, clean.TaskAttempts)
	}
	if fetchFail.JCT <= clean.JCT {
		t.Fatalf("fetch-mode failure was free: %.2f vs %.2f", fetchFail.JCT, clean.JCT)
	}

	pushClean := run(true, 0)
	pushFail := run(true, failAt)
	if canonSet(pushFail.Records) != canonSet(pushClean.Records) {
		t.Fatal("push-mode results wrong under host failure")
	}
	// The pushed shuffle input survives the mapper host's death: no map
	// recomputation.
	if pushFail.TaskAttempts != pushClean.TaskAttempts {
		t.Fatalf("push mode recomputed despite surviving output: %d vs %d attempts",
			pushFail.TaskAttempts, pushClean.TaskAttempts)
	}
	fetchPenalty := fetchFail.JCT - clean.JCT
	pushPenalty := pushFail.JCT - pushClean.JCT
	if pushPenalty >= fetchPenalty {
		t.Fatalf("push host-failure penalty %.2f not below fetch %.2f", pushPenalty, fetchPenalty)
	}
}

// even gives every map partition 60 MB, so the job spans enough virtual
// time to inject a failure mid-run.
var even = [4]float64{60 * mb, 60 * mb, 60 * mb, 60 * mb}

func canonSet(records []rdd.Pair) string {
	return canon(records)
}

// TestHostFailureDuringMapStage covers death before the stage barrier: the
// running map attempt fails over to a live host and the job completes.
func TestHostFailureDuringMapStage(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	mapperHost := topo.HostsIn(dcA)[1]
	cfg := Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6,
		HostFailures: []HostFailure{{Host: mapperHost, At: 1.0}}}
	eng := New(topo, 3, cfg)
	res, err := eng.Run(hostFailJob(topo, dcA, dcB, false, even), ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean := func() *Result {
		eng := New(topo, 3, Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6})
		r, err := eng.Run(hostFailJob(topo, dcA, dcB, false, even), ActionSave, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	if canonSet(res.Records) != canonSet(clean.Records) {
		t.Fatal("results wrong after mid-map host failure")
	}
	if res.TaskAttempts <= clean.TaskAttempts {
		t.Fatalf("no failover attempts recorded: %d vs %d", res.TaskAttempts, clean.TaskAttempts)
	}
}

// TestHostDiesDuringMapStage kills a mapper host late in the map stage:
// one of its map outputs is already registered (partition 2, 10 MB), and
// the 200 MB partition 0 is still computing on it. Whatever the host held
// or was computing must run again on a live host before the reducers read
// it, for a fetch shuffle and for an explicit transfer to the reducers'
// datacenter.
func TestHostDiesDuringMapStage(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	victim := topo.HostsIn(dcA)[0]
	sizes := [4]float64{200 * mb, 10 * mb, 10 * mb, 10 * mb}
	run := func(push bool, failures []HostFailure) *Result {
		eng := New(topo, 3, Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, HostFailures: failures})
		res, err := eng.Run(hostFailJob(topo, dcA, dcB, push, sizes), ActionSave, RunOptions{})
		if err != nil {
			t.Fatalf("push=%v: %v", push, err)
		}
		return res
	}
	// At 0.8 of the fetch run's map stage, partition 0 is still computing
	// on the victim in both runs.
	failAt := 0.8 * run(false, nil).Stages[0].End
	for _, push := range []bool{false, true} {
		clean := run(push, nil)
		res := run(push, []HostFailure{{Host: victim, At: failAt}})
		if canon(res.Records) != canon(rdd.CollectLocal(hostFailJob(topo, dcA, dcB, push, sizes))) {
			t.Fatalf("push=%v: output wrong after host %d died at t=%.2f", push, victim, failAt)
		}
		if res.TaskAttempts <= clean.TaskAttempts {
			t.Fatalf("push=%v: lost map work was not rerun: %d vs %d attempts", push, res.TaskAttempts, clean.TaskAttempts)
		}
	}
}

// TestInputReplicaRedirect: a dead host's input blocks are served by a
// replica, so even losing an input holder doesn't wedge the job.
func TestInputReplicaRedirect(t *testing.T) {
	topo := topology.SixRegionEC2()
	holder := topo.Workers()[3]
	g := rdd.NewGraph()
	var parts []rdd.InputPartition
	for i := 0; i < 8; i++ {
		parts = append(parts, rdd.InputPartition{
			Host: holder, ModeledBytes: 10 * mb,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", i), 1)},
		})
	}
	in := g.Input("in", parts)
	eng := New(topo, 1, Config{HostFailures: []HostFailure{{Host: holder, At: 0.01}}, ComputeNoise: -1})
	res, err := eng.Run(in.ReduceByKey("r", 4, sum), ActionSave, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("records = %d, want 8", len(res.Records))
	}
}

func TestLiveReplicaPrefersSameDC(t *testing.T) {
	topo := topology.SixRegionEC2()
	eng := New(topo, 1, Config{})
	h := topo.Workers()[0]
	if got := eng.liveReplica(h); got != h {
		t.Fatal("live host redirected")
	}
	eng.failHost(h)
	got := eng.liveReplica(h)
	if got == h {
		t.Fatal("dead host not redirected")
	}
	if topo.DCOf(got) != topo.DCOf(h) {
		t.Fatalf("replica in DC %d, want same DC %d", topo.DCOf(got), topo.DCOf(h))
	}
}
