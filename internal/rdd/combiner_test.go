package rdd

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
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

// The golden file is MapSidePrepare's output at the commit before Combiner
// existed (combineByKey over a map[string]Value, then the sort), under a
// combine function that is not commutative — it joins its arguments with a
// comma — so the file pins both the records and the order values were folded
// in. A Combiner fed record by record, and MapSidePrepare and ReduceAggregate
// built on it, must reproduce it exactly.
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
	if got := render(MapSidePrepare(&ShuffleSpec{MapSideCombine: true, Combine: join}, in)); got != string(golden) {
		t.Errorf("MapSidePrepare differs from the parent's:\n%s", got)
	}
	if got := render(ReduceAggregate(&ShuffleSpec{Combine: join}, in)); got != string(golden) {
		t.Errorf("ReduceAggregate differs from the parent's MapSidePrepare on the same records:\n%s", got)
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
