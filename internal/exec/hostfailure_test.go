package exec

import (
	"fmt"
	"math"
	"testing"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
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
	topo := topology.TwoDCMicro()
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	mapperHost := topo.HostsIn(dcA)[0]

	run := func(push bool, failures ...HostFailure) (*Result, *Engine) {
		cfg := Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, HostFailures: failures}
		eng := New(topo, 3, cfg)
		res, err := eng.run(hostFailJob(topo, dcA, dcB, push, even), ActionSave, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res, eng
	}

	// Pick a failure instant after the map stage finished in both modes
	// (under push, once every push has landed) but before either job ends.
	clean, _ := run(false)
	pushClean, _ := run(true)
	failAt := max(clean.Stages[0].End, pushClean.Stages[0].End) + 1
	if failAt >= min(clean.End, pushClean.End) {
		t.Fatalf("no window to inject failure: stages %v / %v", clean.Stages, pushClean.Stages)
	}
	fetchFail, eng := run(false, HostFailure{Host: mapperHost, At: failAt})
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
	// A reducer that finds the shuffle output lost ends its attempt with
	// one failed event naming the shuffle, and is scheduled again under
	// the same attempt number once the lost maps have re-run: no retry.
	if fetchFail.Retries != 0 {
		t.Fatalf("%d retries, want 0", fetchFail.Retries)
	}
	reduce := fetchFail.Stages[1].ID
	parked, scheduled := 0, 0
	for _, ev := range eng.Events.TaskEvents() {
		if ev.Stage != reduce {
			continue
		}
		if ev.Attempt != 1 {
			t.Fatalf("reducer event %+v, want attempt 1", ev)
		}
		switch ev.Phase {
		case obs.PhaseFailed:
			if ev.Err != "shuffle 1 output lost" {
				t.Fatalf("parked reducer failed with %q", ev.Err)
			}
			parked++
		case obs.PhaseScheduled:
			scheduled++
		}
	}
	if parked == 0 || scheduled != 2+parked {
		t.Fatalf("%d reducers parked and %d scheduled, want some parked and each resubmitted once", parked, scheduled)
	}

	// The other mapper host dies while the first lost map is being
	// recomputed: its outputs are lost after the reducers parked, and
	// recovery must pick them up too.
	pushFail, _ := run(true, HostFailure{Host: mapperHost, At: failAt})
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

// TestSecondHostFailureWhileRecomputing kills a second mapper host while
// the first one's lost maps are being recomputed: its registered output is
// lost after the reducers parked, and they must wait for it to be
// recomputed too. dc-a keeps a live host, so the recomputed maps stay there.
func TestSecondHostFailureWhileRecomputing(t *testing.T) {
	b := topology.NewBuilder()
	dcA := b.AddDC("dc-a", 3, 2, topology.Gbps)
	dcB := b.AddDC("dc-b", 2, 2, topology.Gbps)
	b.Link(dcA, dcB, topology.Gbps/4, 40*topology.Millisecond)
	b.Driver(dcB)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mappers := topo.HostsIn(dcA)

	run := func(failures ...HostFailure) (*Result, *Engine) {
		cfg := Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, HostFailures: failures}
		eng := New(topo, 3, cfg)
		res, err := eng.run(hostFailJob(topo, dcA, dcB, false, even), ActionSave, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res, eng
	}
	clean, _ := run()
	first := HostFailure{Host: mappers[0], At: clean.Stages[0].End + 1}
	once, eng := run(first)
	recomputeAt := -1.0
	for _, ev := range eng.Events.TaskEvents() {
		if ev.Stage == once.Stages[0].ID && ev.Phase == obs.PhaseStarted && ev.Time > first.At {
			recomputeAt = ev.Time
			break
		}
	}
	if recomputeAt < 0 {
		t.Fatal("no lost map was recomputed")
	}

	twice, _ := run(first, HostFailure{Host: mappers[1], At: recomputeAt + 1})
	if canonSet(twice.Records) != canonSet(clean.Records) {
		t.Fatal("recovery from a second failure produced wrong results")
	}
	if twice.TaskAttempts <= once.TaskAttempts {
		t.Fatalf("second failure recomputed nothing: %d vs %d attempts", twice.TaskAttempts, once.TaskAttempts)
	}
}

// even gives every map partition 60 MB, so the job spans enough virtual
// time to inject a failure mid-run.
var even = [4]float64{60 * mb, 60 * mb, 60 * mb, 60 * mb}

func canonSet(records []rdd.Pair) string {
	return canon(records)
}

// TestHostFailureDuringMapStage covers death before the stage barrier, of
// one of dc-a's hosts and of both: the running map attempts fail over to
// live hosts and the job completes. With both dead, every map task prefers
// a dead host, so each waits out delay scheduling and runs wherever a slot
// is free: the recheck that relaxes its locality must fire at the instant
// the level changes, however the clock rounds, or the task stays queued
// with free slots and the run stalls.
func TestHostFailureDuringMapStage(t *testing.T) {
	topo := topology.TwoDCMicro()
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	run := func(failures []HostFailure) *Result {
		eng := New(topo, 3, Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, HostFailures: failures})
		res, err := eng.run(hostFailJob(topo, dcA, dcB, false, even), ActionSave, runOptions{})
		if err != nil {
			t.Fatalf("%d hosts killed: %v", len(failures), err)
		}
		return res
	}
	clean := run(nil)
	hosts := topo.HostsIn(dcA)
	for _, victims := range [][]topology.HostID{hosts[1:2], hosts} {
		var failures []HostFailure
		for _, h := range victims {
			failures = append(failures, HostFailure{Host: h, At: 1.0})
		}
		res := run(failures)
		if canonSet(res.Records) != canonSet(clean.Records) {
			t.Fatalf("results wrong after %d hosts died mid-map", len(victims))
		}
		if res.TaskAttempts <= clean.TaskAttempts {
			t.Fatalf("%d hosts killed: no failover attempts recorded: %d vs %d", len(victims), res.TaskAttempts, clean.TaskAttempts)
		}
	}
}

// TestHostDiesDuringMapStage kills a mapper host late in the map stage:
// one of its map outputs is already registered (partition 2, 10 MB), and
// the 200 MB partition 0 is still computing on it. Whatever the host held
// or was computing must run again on a live host before the reducers read
// it, for a fetch shuffle and for an explicit transfer to the reducers'
// datacenter.
func TestHostDiesDuringMapStage(t *testing.T) {
	topo := topology.TwoDCMicro()
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	victim := topo.HostsIn(dcA)[0]
	sizes := [4]float64{200 * mb, 10 * mb, 10 * mb, 10 * mb}
	run := func(push bool, failures []HostFailure) *Result {
		eng := New(topo, 3, Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, HostFailures: failures})
		res, err := eng.run(hostFailJob(topo, dcA, dcB, push, sizes), ActionSave, runOptions{})
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

// TestHostDiesDuringPush kills a mapper host while its map outputs are on
// their way to the reducers' datacenter: once after its maps finished but
// before its pushes start, and once halfway through them. A push whose
// source host died does not land: the receiver attempt fails, the
// partition's map runs again on a live host as attempt 2, and its output is
// pushed again. A lost push's flow is not cancelled, so its bytes stay in
// the cross-DC accounting.
func TestHostDiesDuringPush(t *testing.T) {
	topo := topology.TwoDCMicro()
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	victim := topo.HostsIn(dcA)[0]
	run := func(failures []HostFailure) (*Engine, *Result) {
		eng := New(topo, 3, Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, Trace: true, HostFailures: failures})
		res, err := eng.run(hostFailJob(topo, dcA, dcB, true, even), ActionSave, runOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return eng, res
	}
	cleanEng, clean := run(nil)
	var mapEnd, pushBytes float64
	var pushes []trace.Span
	for _, sp := range cleanEng.Tracer.Spans() {
		switch {
		case sp.Host != victim:
		case sp.Kind == trace.KindMap:
			mapEnd = max(mapEnd, sp.End)
		case sp.Kind == trace.KindPush:
			pushes = append(pushes, sp)
			pushBytes += sp.Bytes
		}
	}
	if len(pushes) == 0 || mapEnd >= pushes[0].Start {
		t.Fatalf("no push window after host %d's maps: maps end %.2f, pushes %v", victim, mapEnd, pushes)
	}
	want := canon(rdd.CollectLocal(hostFailJob(topo, dcA, dcB, true, even)))
	for _, tc := range []struct {
		name string
		at   float64
		// moved is the cross-DC push bytes the lost pushes moved.
		moved float64
	}{
		{"before its pushes start", (mapEnd + pushes[0].Start) / 2, 0},
		{"while its pushes flow", (pushes[0].Start + pushes[0].End) / 2, pushBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failure := HostFailure{Host: victim, At: tc.at}
			eng, res := run([]HostFailure{failure})
			if canon(res.Records) != want {
				t.Fatalf("output wrong after host %d died at t=%.2f", victim, tc.at)
			}
			if sp, ok := landedFromDead(eng.Tracer.Spans(), failure); ok {
				t.Fatalf("push of part %d from host %d landed at t=%.2f, after the host died at t=%.2f", sp.Part, victim, sp.End, tc.at)
			}
			for _, sp := range pushes {
				wantRetried(t, eng.Events.TaskEvents(), sp.Stage, sp.Part, fmt.Sprintf("push source host %d died", victim))
			}
			got, wantBytes := res.CrossDCByTag[TagPush], clean.CrossDCByTag[TagPush]+tc.moved
			if math.Abs(got-wantBytes) > 1e-6*wantBytes {
				t.Fatalf("cross-DC push bytes = %.0f, want %.0f (clean %.0f + lost %.0f)", got, wantBytes, clean.CrossDCByTag[TagPush], tc.moved)
			}
		})
	}
}

// landedFromDead returns a push span from the failed host that ended after
// the host died: a push whose source is dead must not be delivered.
func landedFromDead(spans []trace.Span, f HostFailure) (trace.Span, bool) {
	for _, sp := range spans {
		if sp.Kind == trace.KindPush && sp.Host == f.Host && sp.End > f.At {
			return sp, true
		}
	}
	return trace.Span{}, false
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
	res, err := eng.run(in.ReduceByKey("r", 4, sum), ActionSave, runOptions{})
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
