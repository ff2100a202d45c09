package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
)

// checkedBackend is a memBackend whose every map task also computes its
// prepared output the long way — the whole stage materialised, then
// MapSidePrepare, caching nothing — and holds TaskOutput, which reads and
// fills the site's cache, to it record for record.
type checkedBackend struct {
	*memBackend
	t *testing.T

	mu     sync.Mutex
	shapes map[string]int // combining map stages seen, by chain shape
}

func (b *checkedBackend) RunTask(t Task) (TaskResult, error) {
	if spec := t.Stage.OutSpec; spec != nil {
		recs, err := evalPart(t.Stage.Phases[0].Top, t.Part, b.reader(t), nil)
		if err != nil {
			return TaskResult{}, err
		}
		want := rdd.MapSidePrepare(spec, recs)
		res, err := TaskOutput(t, b.reader(t))
		if err != nil {
			return TaskResult{}, err
		}
		if got := res.Records; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			b.t.Errorf("stage %s part %d: TaskOutput = %v, MapSidePrepare(evalPart) = %v", t.Stage.Name(), t.Part, res.Records, want)
		}
		if t.Part == 0 {
			b.mu.Lock()
			if spec.CombinesMapSide() {
				b.shapes[chainShape(t.Stage.Phases[0].Top)]++
			}
			b.mu.Unlock()
		}
	}
	return b.memBackend.RunTask(t)
}

// chainShape spells a stage's narrow chain from its top down to its base:
// C for a Cached node (materialised because it is cached), E for any other
// per-record operator, ending at the leaf (L) or shuffle boundary (S) that
// feeds it.
func chainShape(node *rdd.RDD) string {
	switch {
	case len(node.Deps) == 0:
		return "L"
	case node.Deps[0].Kind == rdd.DepShuffle:
		return "S"
	case node.Cached:
		return "C" + chainShape(node.Deps[0].Parent)
	}
	return "E" + chainShape(node.Deps[0].Parent)
}

// markCached cache-marks about a quarter of the non-leaf nodes below target.
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

// TestTaskOutputMatchesPrepareOfEvalPart runs random lineages, a quarter
// of their nodes cache-marked, with every map task checked and the job's
// output held to the reference. It asks the generator for the chains the
// fused evaluator has to get right: straight into the combiner from a leaf,
// and fused → materialised (a Cached node) → fused.
func TestTaskOutputMatchesPrepareOfEvalPart(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(0); seed < 120; seed++ {
		want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6))))
		target := rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6))
		if seed%2 == 0 {
			pushed(target)
		}
		markCached(target, rand.New(rand.NewSource(seed)))
		job, err := BuildJob(target)
		if err != nil {
			t.Fatal(err)
		}
		be := &checkedBackend{memBackend: NewMemBackend(3), t: t, shapes: shapes}
		out, err := NewDriver(job, be, DriverConfig{}).Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if canon(slices.Concat(out...)) != want {
			t.Errorf("seed %d: output diverges from the reference", seed)
		}
	}
	var fused, sandwich int
	for shape, n := range shapes {
		if strings.HasPrefix(shape, "E") {
			fused += n
		}
		if strings.Contains(shape, "ECE") {
			sandwich += n
		}
	}
	if fused == 0 || sandwich == 0 {
		t.Errorf("combining map stages by chain shape %v: want some fused (%d), some fused-materialised-fused (%d)",
			shapes, fused, sandwich)
	}
}

// mapStage returns the stage of target's lineage that feeds its last shuffle.
func mapStage(t testing.TB, target *rdd.RDD) *dag.Stage {
	t.Helper()
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	stages := job.Stages()
	st := stages[len(stages)-2]
	if st.OutSpec == nil {
		t.Fatalf("stage %s is not a map stage", st.Name())
	}
	return st
}

// wordLines draws n lines of 8 zipf(1.3) words over a vocabulary of lexemes
// words — perf's wordcount-push input, one map task's share of it at
// n = 18,750 and lexemes = 5,000.
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

func leafOf(g *rdd.Graph, name string, recs []rdd.Pair) *rdd.RDD {
	return g.Input(name, []rdd.InputPartition{{Records: recs}})
}

// A combining map task allocates for its distinct keys, not for its records:
// with the vocabulary fixed, 4,000 more lines may cost at most one allocation
// per hundred of them, where a per-record allocation would cost at least one
// each. The slack covers the few extra words the longer input reaches and
// sync.Pool, which drops items at random under -race. The user functions
// here allocate nothing themselves — split emits substrings of its line,
// the count saturates inside the runtime's table of small boxed integers —
// so what is counted is the evaluator and the combiner.
// testing.AllocsPerRun counts with GOMAXPROCS pinned to 1, so no other
// goroutine's allocations land in the task's count. Held on MapMulti → ReduceByKey (wordcount's map stage)
// and on Map → ReduceByKey.
func TestCombiningMapTaskAllocatesForKeysNotRecords(t *testing.T) {
	const lexemes = 200
	count := func(a, b rdd.Value) rdd.Value { return min(a.(int)+b.(int), 255) }
	split := func(p rdd.Pair, emit func(rdd.Pair)) {
		for line := p.Value.(string); len(line) > 0; {
			var word string
			word, line, _ = strings.Cut(line, " ")
			emit(rdd.KV(word, 1))
		}
	}
	firstWord := func(p rdd.Pair) rdd.Pair {
		word, _, _ := strings.Cut(p.Value.(string), " ")
		return rdd.KV(word, 1)
	}
	lineages := map[string]func(lines []rdd.Pair) *rdd.RDD{
		"MapMulti-ReduceByKey": func(lines []rdd.Pair) *rdd.RDD {
			return leafOf(rdd.NewGraph(), "text", lines).MapMulti("split", split).ReduceByKey("count", 4, count)
		},
		"Map-ReduceByKey": func(lines []rdd.Pair) *rdd.RDD {
			return leafOf(rdd.NewGraph(), "text", lines).Map("first", firstWord).ReduceByKey("count", 4, count)
		},
	}
	for name, build := range lineages {
		allocs := func(n int) float64 {
			st := mapStage(t, build(wordLines(1, n, lexemes)))
			var res TaskResult
			var err error
			a := testing.AllocsPerRun(3, func() { res, err = TaskOutput(Task{Stage: st}, nil) })
			out := res.Records
			if err != nil || len(out) == 0 || len(out) > lexemes {
				t.Fatalf("%s: %d lines gave %d records, %v", name, n, len(out), err)
			}
			return a
		}
		small, large := allocs(4000), allocs(8000)
		t.Logf("%s: %.0f allocations for 4,000 lines, %.0f for 8,000", name, small, large)
		if (large-small)/4000 > 0.01 {
			t.Errorf("%s: a map task made %.0f allocations for 4,000 lines and %.0f for 8,000 over the same %d words; it should not grow with the record count",
				name, small, large, lexemes)
		}
	}
}

// A chain that is not combined has to be materialised, and is sized from its
// source: terasort's Map over a leaf into a sort fills one slice of the
// partition's size (plus the evaluator's closures) instead of doubling its
// way up to it.
func TestMaterialisedChainIsSizedFromItsSource(t *testing.T) {
	tag := func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, p.Value) }
	lines := wordLines(1, 10000, 50)
	st := mapStage(t, leafOf(rdd.NewGraph(), "text", lines).Map("tag", tag).Map("again", tag).SortByKey("sort", 4))
	var out []rdd.Pair
	allocs := testing.AllocsPerRun(5, func() {
		res, err := TaskOutput(Task{Stage: st}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = res.Records
	})
	if len(out) != len(lines) || cap(out) > len(lines)*9/8 { // Grow rounds up to a size class
		t.Errorf("%d records in a slice of capacity %d, want %d in about as many", len(out), cap(out), len(lines))
	}
	if allocs > 8 {
		t.Errorf("%v allocations to map a %d-record leaf twice; the output slice should be allocated once", allocs, len(lines))
	}
}

var mapTaskSink []rdd.Pair

// BenchmarkMapTaskWordCount is one wordcount-push map task: 18,750 lines of
// 8 zipf(1.3) words over 5,000 lexemes, split and counted into the prepared
// output the task would store or push.
func BenchmarkMapTaskWordCount(b *testing.B) {
	const lines = 18750
	words := leafOf(rdd.NewGraph(), "wc.text", wordLines(1, lines, 5000)).MapMulti("wc.split", func(p rdd.Pair, emit func(rdd.Pair)) {
		for _, w := range strings.Fields(p.Value.(string)) {
			emit(rdd.KV(w, 1))
		}
	})
	st := mapStage(b, words.ReduceByKey("wc.count", 8, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TaskOutput(Task{Stage: st}, nil)
		if err != nil {
			b.Fatal(err)
		}
		mapTaskSink = res.Records
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perLine := float64(b.N) * lines
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perLine, "B/line")
}
