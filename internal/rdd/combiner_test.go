package rdd

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/topology"
)

// Every narrow operator's Each must emit exactly the records the operator
// materialised by hand holds, in that order, on every input shape an
// evaluator feeds it (empty partitions and records that turn into nothing
// included).
func TestEachMatchesByHand(t *testing.T) {
	inputs := map[string][]Pair{
		"nil":    nil,
		"empty":  {},
		"one":    {KV("a", 1)},
		"mixed":  {KV("b", 2), KV("a", 3), KV("b", 4), KV("", 6), KV("c", 9)},
		"thirds": {KV("x", 3), KV("y", 6), KV("z", 9)}, // the filter drops every one
	}
	inc := func(p Pair) Pair { return KV(p.Key+"'", p.Value.(int)+1) }
	fan := func(p Pair, emit func(Pair)) { // value mod 3 copies: none for multiples of three
		for i := 0; i < p.Value.(int)%3; i++ {
			emit(KV(fmt.Sprint(p.Key, i), p.Value))
		}
	}
	fanned := func(in []Pair) (out []Pair) {
		for _, p := range in {
			for i := 0; i < p.Value.(int)%3; i++ {
				out = append(out, KV(fmt.Sprint(p.Key, i), p.Value))
			}
		}
		return out
	}
	fanSlice := func(p Pair) (out []Pair) { // fan through FlatMap's slice form
		fan(p, func(q Pair) { out = append(out, q) })
		return out
	}
	none := func(Pair, func(Pair)) {}
	keep := func(p Pair) bool { return p.Value.(int)%3 != 0 }

	g := NewGraph()
	leaf := inputFrom(g, nil)
	ops := []struct {
		node   *RDD
		byHand func(in []Pair) []Pair
	}{
		{leaf.Map("map", inc), func(in []Pair) (out []Pair) {
			for _, p := range in {
				out = append(out, inc(p))
			}
			return out
		}},
		{leaf.MapMulti("mapMulti", fan), fanned},
		{leaf.MapMulti("mapMulti-nothing", none), func([]Pair) []Pair { return nil }},
		{leaf.FlatMap("flatMap", fanSlice), fanned},
		{leaf.Filter("filter", keep), func(in []Pair) (out []Pair) {
			for _, p := range in {
				if keep(p) {
					out = append(out, p)
				}
			}
			return out
		}},
		{leaf.TransferTo(1), func(in []Pair) []Pair { return in }},
	}
	for _, op := range ops {
		if op.node.Each == nil {
			t.Fatalf("%s has no per-record form", op.node.Name)
		}
		for name, in := range inputs {
			orig := slices.Clone(in)
			want := op.byHand(in)
			var emitted []Pair
			for _, p := range in {
				op.node.Each(p, func(q Pair) { emitted = append(emitted, q) })
			}
			if !slices.Equal(emitted, want) {
				t.Errorf("%s on %s: Each emitted %v, by hand %v", op.node.Name, name, emitted, want)
			}
			if !slices.Equal(in, orig) {
				t.Errorf("%s on %s: the operator wrote to its input", op.node.Name, name)
			}
		}
	}
}

// combinerGoldenInput is the input testdata/map_side_prepare.golden was
// recorded over: 600 records on keys that repeat, share prefixes, are empty
// or hold NULs, each valued with its own position as a string.
func combinerGoldenInput() []Pair {
	var in []Pair
	for _, set := range []string{"duplicates", "short-words", "empty-and-nul"} {
		for _, p := range sortInput(set, 200, 11) {
			in = append(in, KV(p.Key, fmt.Sprint(len(in))))
		}
	}
	return in
}

// The golden file is MapSidePrepare's output at the commit before combiner
// existed (combineByKey over a map[string]Value, then the sort), under a
// combine function that is not commutative — it joins its arguments with a
// comma — so the file pins both the records and the order values were folded
// in. A combiner fed record by record and sorted, and ReduceAggregate built
// on it, must reproduce it exactly. MapSidePrepare no longer sorts: it must
// hand on the same records in their keys' first-arrival order.
func TestCombinerMatchesParentMapSidePrepare(t *testing.T) {
	golden, err := os.ReadFile("testdata/map_side_prepare.golden")
	if err != nil {
		t.Fatal(err)
	}
	render := func(recs []Pair) string {
		var sb strings.Builder
		for _, p := range recs {
			fmt.Fprintf(&sb, "%q\t%s\n", p.Key, p.Value.(string))
		}
		return sb.String()
	}
	join := func(a, b Value) Value { return a.(string) + "," + b.(string) }
	in := combinerGoldenInput()

	c := NewCombiner(join)
	for _, p := range in {
		c.Add(p)
	}
	if got := render(c.Sorted()); got != string(golden) {
		t.Errorf("Combiner fed record by record differs from the parent's MapSidePrepare:\n%s", got)
	}
	if got := render(ReduceAggregate(&ShuffleSpec{Combine: join}, in)); got != string(golden) {
		t.Errorf("ReduceAggregate differs from the parent's MapSidePrepare on the same records:\n%s", got)
	}

	// The golden lines, reordered by where each key first arrives in in.
	line := map[string]string{}
	for _, l := range strings.SplitAfter(string(golden), "\n") {
		if quoted, _, ok := strings.Cut(l, "\t"); ok {
			key, err := strconv.Unquote(quoted)
			if err != nil {
				t.Fatalf("golden line %q: %v", l, err)
			}
			line[key] = l
		}
	}
	var want strings.Builder
	for _, p := range in {
		if l, ok := line[p.Key]; ok {
			want.WriteString(l)
			delete(line, p.Key)
		}
	}
	if len(line) != 0 {
		t.Fatalf("%d golden keys never arrive in the input", len(line))
	}
	if got := render(MapSidePrepare(&ShuffleSpec{MapSideCombine: true, Combine: join}, in)); got != want.String() {
		t.Errorf("MapSidePrepare differs from the parent's records in first-arrival order:\n%s", got)
	}
}

// A map output holds one record per key, so the order it hands its records
// on in never reaches a reducer: over random lineages' map outputs, folded
// by the comma-joining combine (which is not commutative), the shuffle
// boundary gives the same records from arrival-ordered map outputs as from
// key-sorted ones. The map outputs are the partitions feeding each lineage's
// final ReduceByKey, their values turned into strings.
func TestMapSideOrderNeverReachesTheReducer(t *testing.T) {
	join := func(a, b Value) Value { return a.(string) + "," + b.(string) }
	reordered := 0 // map outputs whose arrival order is not their key order
	for seed := int64(1); seed <= 40; seed++ {
		final := RandomLineage(seed, NewGraph(), []topology.HostID{0, 1, 2})
		var parts []InputPartition
		for _, recs := range EvalLocal(final.Deps[0].Parent) {
			strs := make([]Pair, len(recs))
			for i, p := range recs {
				strs[i] = KV(p.Key, fmt.Sprint(p.Value))
			}
			parts = append(parts, InputPartition{Records: strs})
		}
		node := NewGraph().Input("maps", parts).ReduceByKey("joined", 3, join)
		spec := node.Deps[0].Shuffle
		arrived := make([][][][]Pair, node.NumParts()) // per reduce partition, its one dependency's runs
		sorted := make([][][][]Pair, node.NumParts())
		for i := range arrived {
			arrived[i], sorted[i] = make([][][]Pair, 1), make([][][]Pair, 1)
		}
		for _, part := range parts {
			c := NewCombiner(join)
			for _, p := range part.Records {
				c.Add(p)
			}
			bySort := c.Sorted()
			byArrival := MapSidePrepare(spec, part.Records)
			if !slices.Equal(bySort, byArrival) {
				reordered++
			}
			for i, shard := range BucketRecords(spec, byArrival) {
				arrived[i][0] = append(arrived[i][0], shard)
			}
			for i, shard := range BucketRecords(spec, bySort) {
				sorted[i][0] = append(sorted[i][0], shard)
			}
		}
		for i := range arrived {
			got, want := ReducePartition(node, i, arrived[i]), ReducePartition(node, i, sorted[i])
			if !slices.Equal(got, want) {
				t.Errorf("seed %d, reduce partition %d: from arrival-ordered map outputs %v, from key-sorted ones %v", seed, i, got, want)
			}
		}
	}
	if reordered == 0 {
		t.Error("every map output arrived in key order, so nothing was compared")
	}
}

// A key's values meet as fn(current, next) in arrival order, one call per
// record after the key's first, whatever other keys arrive in between.
func TestCombinerFoldsInArrivalOrder(t *testing.T) {
	var calls []string
	record := func(a, b Value) Value {
		calls = append(calls, fmt.Sprintf("%v+%v", a, b))
		return fmt.Sprintf("(%v%v)", a, b)
	}
	c := NewCombiner(record)
	for _, p := range pairs("k", "1", "j", "a", "k", "2", "k", "3", "j", "b", "i", "z") {
		c.Add(p)
	}
	got := c.Sorted()
	want := pairs("i", "z", "j", "(ab)", "k", "((12)3)")
	if !slices.Equal(got, want) {
		t.Errorf("combined %v, want %v", got, want)
	}
	if wantCalls := []string{"1+2", "(12)+3", "a+b"}; !slices.Equal(calls, wantCalls) {
		t.Errorf("fn was called with %v, want %v", calls, wantCalls)
	}
}

// sumInts is the combine the recycling tests fold with.
func sumInts(a, b Value) Value { return a.(int) + b.(int) }

// keyedOnes makes n records valued 1 over the keys prefix0 … prefix(keys-1),
// in a shuffled order.
func keyedOnes(prefix string, keys, n int, seed int64) []Pair {
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = KV(fmt.Sprintf("%s%d", prefix, (i*7919+int(seed))%keys), 1)
	}
	return recs
}

// referenceCombine is a combine by a fresh map and a stable sort, for the
// recycled combiner to be held to.
func referenceCombine(fn CombineFn, recs []Pair) []Pair {
	pos := map[string]int{}
	var out []Pair
	for _, p := range recs {
		if i, ok := pos[p.Key]; ok {
			out[i].Value = fn(out[i].Value, p.Value)
			continue
		}
		pos[p.Key] = len(out)
		out = append(out, p)
	}
	return referenceSort(out)
}

// A combiner's table is recycled, so one combine must leave nothing in it for
// the next: combined in turn over disjoint keys, the second output holds none
// of the first's keys, and the first output is not touched by the second
// combine. Both sizes run: under radixSortCutoff keys and over it.
func TestCombinerRecyclesNothingVisible(t *testing.T) {
	for _, keys := range []int{radixSortCutoff / 2, 300} {
		a, b := keyedOnes("a", keys, 10*keys, 1), keyedOnes("b", keys, 7*keys, 2)
		first := combineAll(sumInts, a)
		kept := slices.Clone(first)
		second := combineAll(sumInts, b)
		if want := referenceCombine(sumInts, a); !slices.Equal(first, want) {
			t.Errorf("%d keys: first combine %v, want %v", keys, first, want)
		}
		if !slices.Equal(first, kept) {
			t.Errorf("%d keys: the second combine changed the first's output", keys)
		}
		if want := referenceCombine(sumInts, b); !slices.Equal(second, want) {
			t.Errorf("%d keys: second combine %v, want %v", keys, second, want)
		}
		if len(first) != keys || len(second) != keys || cap(second) != keys {
			t.Errorf("%d keys: outputs of %d and %d records (capacity %d), want %d each at exact length",
				keys, len(first), len(second), cap(second), keys)
		}
		for _, p := range second {
			if !strings.HasPrefix(p.Key, "b") {
				t.Errorf("%d keys: second combine holds %q, a key of the first", keys, p.Key)
			}
		}
	}
}

// Sorted spends a combiner: its table has gone back to the pool, so an Add
// afterwards panics instead of folding into a table another combine owns.
func TestCombinerAddAfterSortedPanics(t *testing.T) {
	c := NewCombiner(sumInts)
	c.Add(KV("k", 1))
	c.Sorted()
	defer func() {
		if recover() == nil {
			t.Error("Add on a spent Combiner did not panic")
		}
	}()
	c.Add(KV("k", 2))
}

// Live workers combine concurrently: combiners in different goroutines share
// the pool but never a table, so each output equals its serial result.
func TestCombinerConcurrentCombines(t *testing.T) {
	const workers = 8
	ins := make([][]Pair, workers)
	want := make([][]Pair, workers)
	for w := range ins {
		ins[w] = keyedOnes(fmt.Sprintf("w%d-", w), 50+20*w, 2000, int64(w))
		want[w] = combineAll(sumInts, ins[w])
	}
	got := make([][][]Pair, workers)
	var wg sync.WaitGroup
	for w := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				got[w] = append(got[w], combineAll(sumInts, ins[w]))
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i, out := range got[w] {
			if !slices.Equal(out, want[w]) {
				t.Fatalf("goroutine %d, combine %d: %d records differ from the serial %d", w, i, len(out), len(want[w]))
			}
		}
	}
}

// A warm combine allocates its output and nothing else: the index and the
// scratch come from the pool already grown. The values stay under 256, which
// box without an allocation, so what is counted is the combiner.
func TestWarmCombineAllocatesOnlyItsOutput(t *testing.T) {
	in := keyedOnes("k", 100, 10000, 3)
	combineAll(sumInts, in) // warm the pool
	allocs := testing.AllocsPerRun(20, func() { combineAll(sumInts, in) })
	// Under the race detector sync.Pool.Put drops one entry in four on
	// purpose; a race build asks for one run that found the pool warm.
	for try := 0; raceBuild() && allocs > 1 && try < 20; try++ {
		allocs = testing.AllocsPerRun(1, func() { combineAll(sumInts, in) })
	}
	if allocs > 1 {
		t.Errorf("%v allocations per warm combine of %d records over 100 keys, want 1", allocs, len(in))
	}
}

// GroupByKey keeps a key's values in arrival order, like the combiner.
func TestGroupByKeyKeepsArrivalOrder(t *testing.T) {
	g := NewGraph()
	grouped := inputFrom(g, pairs("k", "1", "j", "a", "k", "2", "j", "b", "k", "3")).GroupByKey("group", 1)
	got := CollectLocal(grouped)
	want := []Pair{
		{Key: "j", Value: []Value{"a", "b"}},
		{Key: "k", Value: []Value{"1", "2", "3"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grouped %v, want %v", got, want)
	}
}
