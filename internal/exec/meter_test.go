package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// materialisedEvaluate is the evaluator the metered chain replaced, kept as
// the oracle: every operator's output is built as a slice, its Each applied
// to its parent partition's slice, and every size is rdd.SizeOfAll of a
// slice.
func materialisedEvaluate(e *Engine, node *rdd.RDD, part int, host topology.HostID, bound map[int]partData, cost *float64) partData {
	if d, ok := bound[node.ID]; ok {
		e.storeCache(node, part, host, d)
		return d
	}
	if cp := e.cachedPart(node, part); cp != nil {
		return cp.partData
	}
	if len(node.Deps) == 0 {
		in := node.Input[part]
		return partData{records: in.Records, real: rdd.SizeOfAll(in.Records), modeled: in.ModeledBytes}
	}
	in := materialisedEvaluate(e, node.Deps[0].Parent, part, host, bound, cost)
	var outRecs []rdd.Pair
	for _, p := range in.records {
		node.Each(p, func(q rdd.Pair) { outRecs = append(outRecs, q) })
	}
	out := partData{
		records: outRecs,
		real:    rdd.SizeOfAll(outRecs),
		modeled: scaleTo(rdd.SizeOfAll(outRecs), rdd.SizeOfAll(in.records), in.modeled),
	}
	if node.Transfer == nil {
		*cost += in.modeled
	}
	e.storeCache(node, part, host, out)
	return out
}

// materialisedPhase is phaseOutput's oracle: the whole phase output built,
// then folded by MapSidePrepare.
func materialisedPhase(e *Engine, top *rdd.RDD, part int, host topology.HostID, bound map[int]partData, combine *rdd.ShuffleSpec, cost *float64) partData {
	out := materialisedEvaluate(e, top, part, host, bound, cost)
	if combine == nil {
		return out
	}
	combined := rdd.MapSidePrepare(combine, out.records)
	*cost += out.modeled * 0.2
	return partData{
		records: combined,
		real:    rdd.SizeOfAll(combined),
		modeled: scaleTo(rdd.SizeOfAll(combined), rdd.SizeOfAll(out.records), out.modeled),
	}
}

// acquireShuffles aggregates the shuffle boundary a phase reads into its
// bound, as computePhase does before it evaluates.
func acquireShuffles(e *Engine, top *rdd.RDD, part int, host topology.HostID, bound map[int]partData, cost *float64) map[int]partData {
	if bound == nil {
		bound = map[int]partData{}
	}
	if n := e.walkNeed(top, part, bound); n.kind == needShuffleRead {
		bound[n.node.ID] = e.aggregateShuffle(n.node, part, host, cost)
	}
	return bound
}

// markCached cache-marks about a quarter of the non-leaf nodes below target,
// transfer nodes and shuffle outputs included.
func markCached(target *rdd.RDD, rng *rand.Rand) {
	seen := map[int]bool{}
	var walk func(n *rdd.RDD)
	walk = func(n *rdd.RDD) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		if len(n.Deps) > 0 && n != target && rng.Intn(4) == 0 {
			n.Cache()
		}
		for _, d := range n.Deps {
			walk(d.Parent)
		}
	}
	walk(target)
}

// chainCoverage counts what one seed's replays exercised.
type chainCoverage struct {
	phases, receiverPhases, transferChains, combines, cacheStores, resumed int
}

func samePart(a, b partData) bool {
	return len(a.records) == len(b.records) && (len(a.records) == 0 || reflect.DeepEqual(a.records, b.records)) &&
		a.real == b.real && a.modeled == b.modeled
}

// checkMeteredChain runs the random lineage of seed under every scheme —
// with an explicit transferTo spliced into its trunk on about half the seeds,
// and a quarter of its nodes cache-marked — and then replays every task
// phase of every stage twice, once through phaseOutput and once through the
// materialising oracle, each against its own cache: first with empty caches
// (Cached nodes are computed and stored), then with the caches the first
// pass filled (Cached nodes are read, and a stage resumes past a cached
// transfer). Records must be equal, and real bytes, modeled bytes and cost
// must be equal with ==.
func checkMeteredChain(t testing.TB, seed int64, cov *chainCoverage) {
	topo := topology.SixRegionEC2()
	host := topo.Workers()[0]
	for _, scheme := range []struct {
		name string
		agg  bool
		opts runOptions
	}{
		{"spark", false, runOptions{}},
		{"centralized", false, runOptions{Centralize: true}},
		{"aggshuffle", true, runOptions{}},
	} {
		rng := rand.New(rand.NewSource(seed))
		job := rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())
		if rng.Intn(2) == 0 {
			edges := trunkEdges(job)
			d := edges[rng.Intn(len(edges))]
			d.Parent = d.Parent.TransferTo(topology.DCID(rng.Intn(topo.NumDCs())))
		}
		if scheme.agg {
			dag.AutoAggregate(job)
		}
		markCached(job, rng)
		e := New(topo, seed+1, Config{})
		if _, err := e.run(job, ActionSave, scheme.opts); err != nil {
			t.Fatalf("seed %d %s: %v", seed, scheme.name, err)
		}
		pj, err := plan.BuildJob(job)
		if err != nil {
			t.Fatal(err)
		}
		metered, oracle := map[int][]*cachedPart{}, map[int][]*cachedPart{}
		for pass := 0; pass < 2; pass++ {
			for _, st := range pj.Stages() {
				start := 0
				if pass == 1 {
					e.cache = metered
					start = e.resumePhase(&stageState{st: st})
					if start > 0 {
						cov.resumed++
					}
				}
				var combine *rdd.ShuffleSpec
				if spec := st.OutSpec; spec != nil && spec.CombinesMapSide() {
					combine = spec
				}
				for part := 0; part < st.NumTasks; part++ {
					// compare evaluates top over each side's bound and
					// holds the two outputs and costs to each other.
					compare := func(what string, top *rdd.RDD, mBound, oBound map[int]partData, combine *rdd.ShuffleSpec) (got, want partData) {
						var mCost, oCost float64
						e.cache = oracle
						want = materialisedPhase(e, top, part, host, acquireShuffles(e, top, part, host, oBound, &oCost), combine, &oCost)
						e.cache = metered
						got = e.phaseOutput(top, part, host, acquireShuffles(e, top, part, host, mBound, &mCost), combine, &mCost)
						if !samePart(got, want) || mCost != oCost {
							t.Fatalf("seed %d %s pass %d %s part %d %s (top %s):\nmetered      %d records, real %v, modeled %v, cost %v\nmaterialised %d records, real %v, modeled %v, cost %v",
								seed, scheme.name, pass, st.Name(), part, what, top.Name,
								len(got.records), got.real, got.modeled, mCost, len(want.records), want.real, want.modeled, oCost)
						}
						return got, want
					}
					var mBound, oBound map[int]partData
					for ph := start; ph < len(st.Phases); ph++ {
						var phaseCombine *rdd.ShuffleSpec
						if ph == max(start, combinePhase(st)) {
							phaseCombine = combine
						}
						got, want := compare(fmt.Sprintf("phase %d", ph), st.Phases[ph].Top, mBound, oBound, phaseCombine)
						cov.phases++
						if ph > 0 {
							cov.receiverPhases++
						}
						if phaseCombine != nil {
							cov.combines++
						}
						if tn := st.Phases[ph].TransferNode; tn != nil {
							mBound = map[int]partData{tn.ID: got}
							oBound = map[int]partData{tn.ID: want}
						}
					}
					// The stage uncut, every transfer node inside the chain
					// (evaluate over a lineage no phase split reaches).
					if len(st.Phases) > 1 {
						compare("uncut", st.Output, nil, nil, combine)
						cov.transferChains++
					}
				}
			}
			if len(metered) != len(oracle) {
				t.Fatalf("seed %d %s: %d nodes cached by the metered evaluator, %d by the materialising one", seed, scheme.name, len(metered), len(oracle))
			}
			for id, parts := range oracle {
				for part, want := range parts {
					got := metered[id][part]
					if (got == nil) != (want == nil) || got != nil && (got.host != want.host || !samePart(got.partData, want.partData)) {
						t.Fatalf("seed %d %s: node %d part %d cached differently", seed, scheme.name, id, part)
					}
					if pass == 0 && got != nil {
						cov.cacheStores++
					}
				}
			}
		}
	}
}

// TestMeteredChainMatchesMaterialised holds the simulator's metered
// evaluator to the materialising one it replaced on every task phase of 60
// random lineages, and asks the seeds for the cases the chain has to get
// right: receiver phases, transfer nodes inside a chain, the combine, cached
// partitions stored and read, and a stage resumed past a cached transfer.
func TestMeteredChainMatchesMaterialised(t *testing.T) {
	var cov chainCoverage
	for seed := int64(0); seed < 60; seed++ {
		checkMeteredChain(t, seed, &cov)
	}
	t.Logf("%+v", cov)
	if cov.receiverPhases == 0 || cov.transferChains == 0 || cov.combines == 0 || cov.cacheStores == 0 || cov.resumed == 0 {
		t.Errorf("the seeds missed a case: %+v", cov)
	}
}

// FuzzMeteredChainMatchesMaterialised feeds random-lineage seeds to the same
// check.
func FuzzMeteredChainMatchesMaterialised(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkMeteredChain(t, seed, &chainCoverage{})
	})
}

// wordCountMapTask builds a wordcount map stage over lines (split, then a
// combining count) and returns a function that runs its one task through
// phaseOutput on the simulator's evaluator.
func wordCountMapTask(tb testing.TB, lines []rdd.Pair, split rdd.EachFn, count rdd.CombineFn) func() partData {
	tb.Helper()
	topo := topology.SixRegionEC2()
	host := topo.Workers()[0]
	text := rdd.NewGraph().Input("wc.text", []rdd.InputPartition{{Host: host, ModeledBytes: 1e8, Records: lines}})
	pj, err := plan.BuildJob(text.MapMulti("wc.split", split).ReduceByKey("wc.count", 8, count))
	if err != nil {
		tb.Fatal(err)
	}
	st := pj.Stages()[0]
	if !st.OutSpec.CombinesMapSide() {
		tb.Fatalf("stage %s does not combine map-side", st.Name())
	}
	e := New(topo, 1, Config{})
	return func() partData {
		var cost float64
		return e.phaseOutput(st.Phases[0].Top, 0, host, map[int]partData{}, st.OutSpec, &cost)
	}
}

// wordLines draws n lines of 8 zipf(1.3) words over a vocabulary of lexemes
// words: one wordcount map task's share of the input at n = 18,750 and
// lexemes = 5,000.
func wordLines(seed int64, n, lexemes int) []rdd.Pair {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(lexemes-1))
	vocab := make([]string, lexemes)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("lexeme%04d", i)
	}
	recs := make([]rdd.Pair, n)
	words := make([]string, 8)
	for i := range recs {
		for w := range words {
			words[w] = vocab[zipf.Uint64()]
		}
		recs[i] = rdd.KV(fmt.Sprintf("line%07d", i), strings.Join(words, " "))
	}
	return recs
}

// minBytes is the fewest bytes f allocated in one of runs calls, after one
// warm-up call, with GOMAXPROCS pinned to 1 so no other goroutine's
// allocations land in the count. The minimum, not the mean: under -race
// sync.Pool drops a quarter of its items at random, and the sort a combiner
// ends with takes its key entries from one.
func minBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var least uint64 = math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// A combining simulator map task allocates for its distinct keys, not its
// records: the chain streams into the combiner and each operator's size is
// a running sum, so with the vocabulary fixed 4,000 more lines allocate no
// more bytes. The user functions allocate nothing themselves — split emits
// substrings of its line, and the count saturates inside the runtime's
// table of small boxed integers — so what is counted is the evaluator and
// the combiner.
func TestCombiningSimMapTaskAllocatesForKeysNotRecords(t *testing.T) {
	const lexemes = 200
	count := func(a, b rdd.Value) rdd.Value { return min(a.(int)+b.(int), 255) }
	split := func(p rdd.Pair, emit func(rdd.Pair)) {
		for line := p.Value.(string); len(line) > 0; {
			var word string
			word, line, _ = strings.Cut(line, " ")
			emit(rdd.KV(word, 1))
		}
	}
	taskBytes := func(n int) uint64 {
		task := wordCountMapTask(t, wordLines(1, n, lexemes), split, count)
		if out := task(); len(out.records) == 0 || len(out.records) > lexemes {
			t.Fatalf("%d lines gave %d records", n, len(out.records))
		}
		return minBytes(10, func() { task() })
	}
	small, large := taskBytes(4000), taskBytes(8000)
	t.Logf("%d bytes for 4,000 lines, %d for 8,000", small, large)
	if large > small {
		t.Errorf("a combining map task allocated %d bytes for 4,000 lines and %d for 8,000 over the same %d words; it should not grow with the record count",
			small, large, lexemes)
	}
}

var simMapTaskSink partData

// BenchmarkSimMapTaskWordCount is one combining simulator map task of
// wordcount: 18,750 lines of 8 zipf(1.3) words over 5,000 lexemes, split and
// counted into the output the task registers or pushes.
func BenchmarkSimMapTaskWordCount(b *testing.B) {
	const lines = 18750
	task := wordCountMapTask(b, wordLines(1, lines, 5000), func(p rdd.Pair, emit func(rdd.Pair)) {
		for _, w := range strings.Fields(p.Value.(string)) {
			emit(rdd.KV(w, 1))
		}
	}, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simMapTaskSink = task()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perLine := float64(b.N) * lines
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perLine, "B/line")
}
