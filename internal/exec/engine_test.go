package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

const mb = 1e6

func sum(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }

// spreadInput builds an input RDD with one partition per worker host of
// each DC (or the subset given), carrying words with per-partition
// duplicates so that combining matters.
func spreadInput(g *rdd.Graph, topo *topology.Topology, modeledPerPart float64) *rdd.RDD {
	var parts []rdd.InputPartition
	i := 0
	for _, dc := range topo.DCs {
		for _, h := range topo.HostsIn(dc.ID) {
			var recs []rdd.Pair
			for w := 0; w < 20; w++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("line%d", w), fmt.Sprintf("word%d word%d word7", w%5, i%11)))
			}
			parts = append(parts, rdd.InputPartition{Host: h, ModeledBytes: modeledPerPart, Records: recs})
			i++
		}
	}
	return g.Input("text", parts)
}

// wordCount builds the canonical job on the given graph.
func wordCount(in *rdd.RDD, parts int) *rdd.RDD {
	words := in.FlatMap("words", func(p rdd.Pair) []rdd.Pair {
		var out []rdd.Pair
		for _, w := range strings.Fields(p.Value.(string)) {
			out = append(out, rdd.KV(w, 1))
		}
		return out
	})
	return words.ReduceByKey("counts", parts, sum)
}

func canon(records []rdd.Pair) string {
	cp := make([]rdd.Pair, len(records))
	copy(cp, records)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Key != cp[j].Key {
			return cp[i].Key < cp[j].Key
		}
		return fmt.Sprint(cp[i].Value) < fmt.Sprint(cp[j].Value)
	})
	var b strings.Builder
	for _, p := range cp {
		fmt.Fprintf(&b, "%s=%v;", p.Key, p.Value)
	}
	return b.String()
}

func TestWordCountMatchesReference(t *testing.T) {
	topo := topology.SixRegionEC2()

	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		return wordCount(spreadInput(g, topo, 10*mb), 8)
	}
	eng := New(topo, 1, Config{})
	res, err := eng.Run(build(), ActionCollect, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := rdd.CollectLocal(build())
	if canon(res.Records) != canon(want) {
		t.Fatalf("engine output diverges from reference:\n got  %s\n want %s", canon(res.Records), canon(want))
	}
	if res.JCT <= 0 {
		t.Fatalf("JCT = %v, want > 0", res.JCT)
	}
	if res.CrossDCBytes <= 0 {
		t.Fatal("geo-distributed wordcount incurred no cross-DC traffic")
	}
	if len(res.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(res.Stages))
	}
	for _, s := range res.Stages {
		if s.End <= s.Start {
			t.Fatalf("stage %s has empty span [%v,%v]", s.Name, s.Start, s.End)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	topo := topology.SixRegionEC2()
	run := func() (float64, float64) {
		g := rdd.NewGraph()
		job := wordCount(spreadInput(g, topo, 10*mb), 8)
		eng := New(topo, 42, Config{Net: netJitter()})
		res, err := eng.Run(job, ActionCollect, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT, res.CrossDCBytes
	}
	j1, b1 := run()
	j2, b2 := run()
	if j1 != j2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", j1, b1, j2, b2)
	}
}

func netJitter() simnet.Config {
	return simnet.Config{JitterAmplitude: 0.3}
}

func TestSeedChangesOutcomeUnderJitter(t *testing.T) {
	topo := topology.SixRegionEC2()
	run := func(seed int64) float64 {
		g := rdd.NewGraph()
		job := wordCount(spreadInput(g, topo, 20*mb), 8)
		eng := New(topo, seed, Config{Net: netJitter()})
		res, err := eng.Run(job, ActionCollect, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.JCT
	}
	a, b := run(1), run(2)
	if a == b {
		t.Fatal("different seeds gave identical JCT despite jitter and noise")
	}
}

func TestCountAction(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	g := rdd.NewGraph()
	in := spreadInput(g, topo, mb)
	eng := New(topo, 1, Config{})
	res, err := eng.Run(in, ActionCount, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 4*20 {
		t.Fatalf("count = %d, want 80", total)
	}
	if len(res.Records) != 0 {
		t.Fatal("count action returned records")
	}
}

// TestPushBeatsFetch reproduces the Fig. 1 effect: with map input in dc-a
// and reducers pinned in dc-b, pushing shuffle input early (transferTo)
// pipelines the WAN transfer with the map stage and beats the fetch-based
// baseline.
func TestPushBeatsFetch(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")

	build := func(push bool) *rdd.RDD {
		g := rdd.NewGraph()
		var parts []rdd.InputPartition
		// Four staggered map partitions (two per worker): mappers finish
		// at very different times, as in Fig. 1, keeping the WAN link
		// busy from the first map's completion onward.
		hosts := topo.HostsIn(dcA)
		for i := 0; i < 4; i++ {
			var recs []rdd.Pair
			for w := 0; w < 30; w++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("k%d-%d", i, w), fmt.Sprintf("word%d", w%7)))
			}
			parts = append(parts, rdd.InputPartition{Host: hosts[i%2], ModeledBytes: float64(i+1) * 40 * mb, Records: recs})
		}
		in := g.Input("in", parts)
		mapped := in.Map("m", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Value.(string), 1) })
		if push {
			mapped = mapped.TransferTo(dcB)
		}
		return mapped.AggregateByKey("agg", 2, sum)
	}

	run := func(push bool) *Result {
		eng := New(topo, 3, Config{PinReducersDC: &dcB, ComputeNoise: -1, ComputeBps: 20e6, Trace: true})
		res, err := eng.Run(build(push), ActionCollect, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fetch := run(false)
	push := run(true)
	if push.JCT >= fetch.JCT {
		t.Fatalf("push JCT %v not better than fetch %v", push.JCT, fetch.JCT)
	}
	if canon(push.Records) != canon(fetch.Records) {
		t.Fatal("push and fetch jobs disagree on results")
	}
	// The shuffle bytes should move as push traffic instead of shuffle
	// fetches.
	if push.CrossDCByTag[TagShuffle] > 0.05*push.CrossDCByTag[TagPush] {
		t.Fatalf("push run still fetches across DCs: %v", push.CrossDCByTag)
	}
	if fetch.CrossDCByTag[TagShuffle] <= 0 {
		t.Fatalf("fetch run shows no cross-DC shuffle traffic: %v", fetch.CrossDCByTag)
	}
}

// TestFailureRecovery reproduces the Fig. 2 effect: a failed reducer
// re-fetches across datacenters in the baseline but reads locally after a
// push.
func TestFailureRecovery(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	dcA, _ := topo.DCByName("dc-a")
	dcB, _ := topo.DCByName("dc-b")
	_ = dcA

	build := func(push bool) *rdd.RDD {
		g := rdd.NewGraph()
		var parts []rdd.InputPartition
		for i, h := range topo.HostsIn(dcA) {
			var recs []rdd.Pair
			for w := 0; w < 30; w++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("k%d-%d", i, w), fmt.Sprintf("word%d", w%7)))
			}
			parts = append(parts, rdd.InputPartition{Host: h, ModeledBytes: 40 * mb, Records: recs})
		}
		in := g.Input("in", parts)
		mapped := in.Map("m", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Value.(string), 1) })
		if push {
			mapped = mapped.TransferTo(dcB)
		}
		return mapped.AggregateByKey("agg", 2, sum)
	}
	run := func(push, fail bool) *Result {
		cfg := Config{PinReducersDC: &dcB, ComputeNoise: -1}
		if fail {
			cfg.ScriptedFailures = []FailureSpec{{Stage: "agg", Part: 0, Attempt: 1, AtFrac: 0.5}}
		}
		eng := New(topo, 3, cfg)
		res, err := eng.Run(build(push), ActionCollect, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fetchClean := run(false, false)
	fetchFail := run(false, true)
	pushClean := run(true, false)
	pushFail := run(true, true)

	if fetchFail.TaskAttempts != fetchClean.TaskAttempts+1 {
		t.Fatalf("failure did not add an attempt: %d vs %d", fetchFail.TaskAttempts, fetchClean.TaskAttempts)
	}
	if canon(fetchFail.Records) != canon(fetchClean.Records) {
		t.Fatal("failure changed results")
	}
	// Recovery penalty: extra time caused by the failure.
	fetchPenalty := fetchFail.JCT - fetchClean.JCT
	pushPenalty := pushFail.JCT - pushClean.JCT
	if pushPenalty >= fetchPenalty {
		t.Fatalf("push recovery penalty %v not better than fetch %v", pushPenalty, fetchPenalty)
	}
	// The baseline re-fetches across DCs: its failed run moves more
	// cross-DC shuffle bytes than its clean run.
	if fetchFail.CrossDCByTag[TagShuffle] <= fetchClean.CrossDCByTag[TagShuffle]*1.2 {
		t.Fatalf("baseline re-fetch not visible: %v vs %v",
			fetchFail.CrossDCByTag[TagShuffle], fetchClean.CrossDCByTag[TagShuffle])
	}
	// The push run's retry reads locally: cross-DC bytes stay put.
	if pushFail.CrossDCBytes > pushClean.CrossDCBytes*1.05 {
		t.Fatalf("push retry crossed DCs: %v vs %v", pushFail.CrossDCBytes, pushClean.CrossDCBytes)
	}
}

func TestAutoAggregatePicksLargestInputDC(t *testing.T) {
	topo := topology.SixRegionEC2()
	g := rdd.NewGraph()
	// Put 3 partitions in DC 2, one each elsewhere: DC 2 is the best
	// aggregator.
	var parts []rdd.InputPartition
	for dc := 0; dc < topo.NumDCs(); dc++ {
		n := 1
		if dc == 2 {
			n = 3
		}
		hosts := topo.HostsIn(topology.DCID(dc))
		for i := 0; i < n; i++ {
			parts = append(parts, rdd.InputPartition{
				Host: hosts[i], ModeledBytes: 30 * mb,
				Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d-%d", dc, i), 1)},
			})
		}
	}
	in := g.Input("in", parts)
	job := in.ReduceByKey("r", 8, sum)
	if n := dag.AutoAggregate(job); n != 1 {
		t.Fatalf("AutoAggregate inserted %d, want 1", n)
	}
	eng := New(topo, 1, Config{Trace: true})
	res, err := eng.Run(job, ActionCollect, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// All shuffle output must end up registered in DC 2 hosts before the
	// reduce stage, so cross-DC shuffle fetches are ~0 and pushes > 0.
	if res.CrossDCByTag[TagShuffle] > 0 {
		t.Fatalf("auto aggregation left cross-DC fetches: %v", res.CrossDCByTag)
	}
	if res.CrossDCByTag[TagPush] <= 0 {
		t.Fatalf("no push traffic recorded: %v", res.CrossDCByTag)
	}
	// Receiver spans must all sit on DC-2 hosts.
	for _, s := range eng.Tracer.ByKind(trace.KindReceive) {
		if topo.DCOf(s.Host) != 2 {
			t.Fatalf("receiver ran in DC %d, want 2", topo.DCOf(s.Host))
		}
	}
}

func TestCentralizedMovesInputs(t *testing.T) {
	topo := topology.SixRegionEC2()
	g := rdd.NewGraph()
	job := wordCount(spreadInput(g, topo, 10*mb), 8)
	eng := New(topo, 1, Config{})
	res, err := eng.Run(job, ActionCollect, RunOptions{Centralize: true})
	if err != nil {
		t.Fatal(err)
	}
	// 24 partitions, 4 local to the chosen DC: 20 partitions move.
	wantCentralize := 20 * 10 * mb
	if math.Abs(res.CrossDCByTag[TagCentralize]-float64(wantCentralize)) > mb {
		t.Fatalf("centralize traffic = %v, want ~%v", res.CrossDCByTag[TagCentralize], wantCentralize)
	}
	// After centralization everything is local except result collection.
	if res.CrossDCByTag[TagShuffle] > 0 || res.CrossDCByTag[TagInput] > 0 {
		t.Fatalf("centralized run still crossed DCs: %v", res.CrossDCByTag)
	}
	g2 := rdd.NewGraph()
	want := rdd.CollectLocal(wordCount(spreadInput(g2, topo, 10*mb), 8))
	if canon(res.Records) != canon(want) {
		t.Fatal("centralized run produced wrong results")
	}
}

func TestCacheAvoidsRecomputationAcrossJobs(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	g := rdd.NewGraph()
	in := spreadInput(g, topo, 5*mb)
	computes := 0
	heavy := in.MapPartitions("heavy", func(_ int, recs []rdd.Pair) []rdd.Pair {
		computes++
		return recs
	}).Cache()
	eng := New(topo, 1, Config{})
	if _, err := eng.Run(heavy, ActionCount, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	after := computes
	if after == 0 {
		t.Fatal("heavy never computed")
	}
	if _, err := eng.Run(heavy, ActionCount, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if computes != after {
		t.Fatalf("cached RDD recomputed: %d -> %d", after, computes)
	}
}

// TestMaxAttemptsExceededFailsJob fails one reducer on every attempt it
// gets: the job must fail, not retry past plan.MaxAttempts.
func TestMaxAttemptsExceededFailsJob(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	g := rdd.NewGraph()
	job := wordCount(spreadInput(g, topo, mb), 2)
	var cfg Config
	for a := 1; a <= plan.MaxAttempts; a++ {
		cfg.ScriptedFailures = append(cfg.ScriptedFailures, FailureSpec{Stage: "counts", Part: 0, Attempt: a, AtFrac: 0.5})
	}
	eng := New(topo, 1, cfg)
	if _, err := eng.Run(job, ActionCollect, RunOptions{}); err == nil {
		t.Fatal("job succeeded despite exhausted attempts")
	}
}

// TestRandomReduceFailuresStillCorrect fails the first attempt of half the
// reducers part-way through their compute: every one is retried, and the
// output is still the reference's.
func TestRandomReduceFailuresStillCorrect(t *testing.T) {
	topo := topology.SixRegionEC2()
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		return wordCount(spreadInput(g, topo, 5*mb), 8)
	}
	var cfg Config
	for part := 0; part < 8; part += 2 {
		cfg.ScriptedFailures = append(cfg.ScriptedFailures, FailureSpec{Stage: "counts", Part: part, AtFrac: 0.5})
	}
	eng := New(topo, 7, cfg)
	res, err := eng.Run(build(), ActionCollect, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if canon(res.Records) != canon(rdd.CollectLocal(build())) {
		t.Fatal("results wrong under reducer failures")
	}
	if res.TaskAttempts <= 24+8 {
		t.Fatalf("TaskAttempts = %d; expected retries beyond 32 tasks", res.TaskAttempts)
	}
}

// TestCleanRunOneAttemptPerTask: without a fault input, every partition
// runs exactly once.
func TestCleanRunOneAttemptPerTask(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	g := rdd.NewGraph()
	in := spreadInput(g, topo, mb)
	eng := New(topo, 1, Config{ComputeNoise: 0.9})
	res, err := eng.Run(in, ActionCount, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskAttempts != 4 || res.Retries != 0 {
		t.Fatalf("attempts = %d, retries = %d, want exactly one attempt per partition", res.TaskAttempts, res.Retries)
	}
}

func TestSortByKeyThroughEngine(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	g := rdd.NewGraph()
	var parts []rdd.InputPartition
	for i, h := range topo.Workers() {
		var recs []rdd.Pair
		for w := 0; w < 25; w++ {
			recs = append(recs, rdd.KV(fmt.Sprintf("%04d", (w*13+i*7)%1000), "v"))
		}
		parts = append(parts, rdd.InputPartition{Host: h, ModeledBytes: 2 * mb, Records: recs})
	}
	in := g.Input("in", parts)
	eng := New(topo, 1, Config{})
	res, err := eng.Run(in.SortByKey("sorted", 3), ActionCollect, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 100 {
		t.Fatalf("sorted %d records, want 100", len(res.Records))
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Key < res.Records[i-1].Key {
			t.Fatalf("output not globally sorted at %d: %q < %q", i, res.Records[i].Key, res.Records[i-1].Key)
		}
	}
}

func TestEngineRejectsConcurrentJobs(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	eng := New(topo, 1, Config{})
	g := rdd.NewGraph()
	job := spreadInput(g, topo, mb)
	if _, err := eng.Run(job, ActionCount, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	// After a completed job a new one is fine.
	if _, err := eng.Run(job, ActionCount, RunOptions{}); err != nil {
		t.Fatal(err)
	}
}
