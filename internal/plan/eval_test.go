package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
)

// checkedBackend is a MemBackend whose every map task also computes its
// prepared output the long way — the whole stage materialised, then
// MapSidePrepare — and holds TaskOutput to it record for record.
type checkedBackend struct {
	*MemBackend
	t *testing.T

	mu     sync.Mutex
	shapes map[string]int // combining map stages seen, by chain shape
}

func (b *checkedBackend) RunTask(t Task) (TaskResult, error) {
	if spec := t.Stage.OutSpec; spec != nil {
		recs, err := EvalStagePart(t.Stage, t.Part, b.reader(t))
		if err != nil {
			return TaskResult{}, err
		}
		want := rdd.MapSidePrepare(spec, recs)
		got, err := TaskOutput(t.Stage, t.Part, b.reader(t))
		if err != nil {
			return TaskResult{}, err
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			b.t.Errorf("stage %s part %d: TaskOutput = %v, MapSidePrepare(EvalStagePart) = %v", t.Stage.Name(), t.Part, got, want)
		}
		if spec.CombinesMapSide() && t.Part == 0 {
			b.mu.Lock()
			b.shapes[chainShape(t.Stage.Phases[0].Top)]++
			b.mu.Unlock()
		}
	}
	return b.MemBackend.RunTask(t)
}

// chainShape spells a stage's narrow chain from its top down its first
// parents: E for a per-record operator, U for a Union, P for MapPartitions,
// ending at the leaf (L) or shuffle boundary (S) that feeds it.
func chainShape(node *rdd.RDD) string {
	switch {
	case len(node.Deps) == 0:
		return "L"
	case node.Deps[0].Kind == rdd.DepShuffle:
		return "S"
	case len(node.Deps) > 1:
		return "U" + chainShape(node.Deps[0].Parent)
	case node.Each != nil:
		return "E" + chainShape(node.Deps[0].Parent)
	}
	return "P" + chainShape(node.Deps[0].Parent)
}

// TestTaskOutputMatchesPrepareOfEvalStagePart runs random lineages with every
// map task checked, and asks the generator for the chains the fused evaluator
// has to get right: straight into the combiner from a leaf, through a Union,
// and fused → materialised (MapPartitions) → fused.
func TestTaskOutputMatchesPrepareOfEvalStagePart(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(0); seed < 120; seed++ {
		job, err := BuildJob(rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6)))
		if err != nil {
			t.Fatal(err)
		}
		be := &checkedBackend{MemBackend: NewMemBackend(3), t: t, shapes: shapes}
		if _, err := NewDriver(job, be, DriverConfig{Aggregate: seed%2 == 0}).Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	var fused, union, sandwich int
	for shape, n := range shapes {
		if strings.HasPrefix(shape, "E") {
			fused += n
		}
		if strings.Contains(shape, "U") {
			union += n
		}
		if strings.Contains(shape, "EPE") || strings.Contains(shape, "UPE") || strings.Contains(shape, "EPU") {
			sandwich += n
		}
	}
	if fused == 0 || union == 0 || sandwich == 0 {
		t.Errorf("combining map stages by chain shape %v: want some fused (%d), some through a Union (%d), some fused-materialised-fused (%d)",
			shapes, fused, union, sandwich)
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
// here allocate nothing themselves — split reuses one slice, the count
// saturates inside the runtime's table of small boxed integers — so what is
// counted is the evaluator and the combiner. testing.AllocsPerRun counts
// with GOMAXPROCS pinned to 1, so no other goroutine's allocations land in
// the task's count. Held on FlatMap → ReduceByKey (wordcount's map stage)
// and on Map → Union → ReduceByKey.
func TestCombiningMapTaskAllocatesForKeysNotRecords(t *testing.T) {
	const lexemes = 200
	count := func(a, b rdd.Value) rdd.Value { return min(a.(int)+b.(int), 255) }
	buf := make([]rdd.Pair, 8)
	split := func(p rdd.Pair) []rdd.Pair {
		out := buf[:0]
		line := p.Value.(string)
		for len(line) > 0 {
			word, rest, _ := strings.Cut(line, " ")
			out, line = append(out, rdd.KV(word, 1)), rest
		}
		return out
	}
	firstWord := func(p rdd.Pair) rdd.Pair {
		word, _, _ := strings.Cut(p.Value.(string), " ")
		return rdd.KV(word, 1)
	}
	lineages := map[string]func(lines []rdd.Pair) *rdd.RDD{
		"FlatMap-ReduceByKey": func(lines []rdd.Pair) *rdd.RDD {
			return leafOf(rdd.NewGraph(), "text", lines).FlatMap("split", split).ReduceByKey("count", 4, count)
		},
		"Map-Union-ReduceByKey": func(lines []rdd.Pair) *rdd.RDD {
			g := rdd.NewGraph()
			other := leafOf(g, "other", lines[:1]).Map("first", firstWord)
			return leafOf(g, "text", lines).Map("first", firstWord).Union("both", other).ReduceByKey("count", 4, count)
		},
	}
	for name, build := range lineages {
		allocs := func(n int) float64 {
			st := mapStage(t, build(wordLines(1, n, lexemes)))
			var out []rdd.Pair
			var err error
			a := testing.AllocsPerRun(3, func() { out, err = TaskOutput(st, 0, nil) })
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
// partition's size (plus the evaluator's closures), as the operator's own
// Narrow would, instead of doubling its way up to it.
func TestMaterialisedChainIsSizedFromItsSource(t *testing.T) {
	tag := func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, p.Value) }
	lines := wordLines(1, 10000, 50)
	st := mapStage(t, leafOf(rdd.NewGraph(), "text", lines).Map("tag", tag).Map("again", tag).SortByKey("sort", 4))
	var out []rdd.Pair
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if out, err = TaskOutput(st, 0, nil); err != nil {
			t.Fatal(err)
		}
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
	words := leafOf(rdd.NewGraph(), "wc.text", wordLines(1, lines, 5000)).FlatMap("wc.split", func(p rdd.Pair) []rdd.Pair {
		fields := strings.Fields(p.Value.(string))
		out := make([]rdd.Pair, len(fields))
		for i, w := range fields {
			out[i] = rdd.KV(w, 1)
		}
		return out
	})
	st := mapStage(b, words.ReduceByKey("wc.count", 8, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := TaskOutput(st, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		mapTaskSink = out
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perLine := float64(b.N) * lines
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perLine, "ns/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perLine, "B/line")
}
