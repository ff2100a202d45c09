package workloads

import (
	"fmt"
	"math/rand"
	"strings"

	"wanshuffle/internal/rdd"
)

// WordCount is the simplest workload: tokenize text and count word
// occurrences through a single combining shuffle.
func WordCount() *Workload {
	return &Workload{
		Name:   "WordCount",
		TableI: "The total size of generated input files is 3.2 GB.",
		Inputs: []Input{{"wc.text", wordCountLines, 3.2 * GB}},
		Flow:   wordCountFlow,
		Check:  expectExactMatch,
	}
}

// wordCountLines generates text lines with a skewed vocabulary so that
// map-side combining shrinks the shuffle input to a few percent of the raw
// text, as it does at paper scale.
func wordCountLines(seed int64) []rdd.Pair {
	rng := rand.New(rand.NewSource(seed ^ 0x77c0))
	zipf := rand.NewZipf(rng, 1.3, 1, 199)
	const lines = 4800
	const wordsPerLine = 8
	recs := make([]rdd.Pair, 0, lines)
	for i := 0; i < lines; i++ {
		words := make([]string, wordsPerLine)
		for w := range words {
			words[w] = fmt.Sprintf("lexeme%03d", zipf.Uint64())
		}
		recs = append(recs, rdd.KV(fmt.Sprintf("line%05d", i), strings.Join(words, " ")))
	}
	return recs
}

func wordCountFlow(ins []*rdd.RDD) *rdd.RDD {
	words := ins[0].FlatMap("wc.split", func(p rdd.Pair) []rdd.Pair {
		fields := strings.Fields(p.Value.(string))
		out := make([]rdd.Pair, len(fields))
		for i, w := range fields {
			out[i] = rdd.KV(w, 1)
		}
		return out
	})
	return words.ReduceByKey("wc.count", parallelism, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
}
