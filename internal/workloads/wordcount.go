package workloads

import (
	"math/rand"

	"wanshuffle/internal/rdd"
)

// WordCount is the simplest workload: tokenize text and count word
// occurrences through a single combining shuffle.
func WordCount() *Workload {
	return &Workload{
		Name:   "WordCount",
		TableI: "The total size of generated input files is 3.2 GB.",
		inputs: []input{{"wc.text", wordCountLines, 3.2 * gb}},
		flow:   wordCountFlow,
		Check:  expectExactMatch,
	}
}

// wordCountLines generates text lines with a skewed vocabulary so that
// map-side combining shrinks the shuffle input to a few percent of the raw
// text, as it does at paper scale.
func wordCountLines(seed int64) []rdd.Pair {
	const lines = 4800
	const wordsPerLine = 8
	const vocab = 200
	rng := rand.New(rand.NewSource(seed ^ 0x77c0))
	zipf := rand.NewZipf(rng, 1.3, 1, vocab-1)
	lexemes := names("lexeme", vocab, 3)
	recs := make([]rdd.Pair, lines)
	var line []byte
	for i := range recs {
		line = line[:0]
		for w := 0; w < wordsPerLine; w++ {
			if w > 0 {
				line = append(line, ' ')
			}
			line = append(line, lexemes[zipf.Uint64()]...)
		}
		recs[i] = rdd.KV(numbered("line", i, 5), string(line))
	}
	return recs
}

func wordCountFlow(ins []*rdd.RDD) *rdd.RDD {
	words := ins[0].MapMulti("wc.split", func(p rdd.Pair, emit func(rdd.Pair)) {
		eachField(p.Value.(string), func(w string) { emit(rdd.KV(w, 1)) })
	})
	return words.ReduceByKey("wc.count", parallelism, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
}
