package rdd_test

import (
	"fmt"
	"strings"

	"wanshuffle/internal/rdd"
)

// ExampleRDD_ReduceByKey builds the canonical WordCount lineage and
// evaluates it with the in-memory reference evaluator.
func ExampleRDD_ReduceByKey() {
	g := rdd.NewGraph()
	in := g.Input("lines", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 64, Records: []rdd.Pair{
			rdd.KV("l1", "to be or not"),
			rdd.KV("l2", "to be"),
		}},
	})
	counts := in.
		MapMulti("words", func(p rdd.Pair, emit func(rdd.Pair)) {
			for _, w := range strings.Fields(p.Value.(string)) {
				emit(rdd.KV(w, 1))
			}
		}).
		ReduceByKey("count", 2, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })

	for _, p := range rdd.CollectLocal(counts) {
		fmt.Printf("%s=%d\n", p.Key, p.Value)
	}
	// Unordered output:
	// be=2
	// to=2
	// or=1
	// not=1
}

// ExampleRDD_TransferTo shows the paper's primitive: the lineage carries a
// placement directive that the engine turns into pipelined receiver tasks.
func ExampleRDD_TransferTo() {
	g := rdd.NewGraph()
	in := g.Input("in", []rdd.InputPartition{
		{Host: 0, ModeledBytes: 64, Records: []rdd.Pair{rdd.KV("k", 1)}},
	})
	moved := in.TransferTo(3)
	fmt.Println(moved.Transfer.DC, moved.Transfer.Auto)
	auto := in.TransferToAuto()
	fmt.Println(auto.Transfer.Auto)
	// Output:
	// 3 false
	// true
}
