package workloads

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"wanshuffle/internal/rdd"
)

// NaiveBayes trains a multinomial classifier: count (class, term)
// frequencies through a combining shuffle, then assemble the per-class
// model through a grouping shuffle — two consecutive shuffles over
// shrinking data.
func NaiveBayes() *Workload {
	return &Workload{
		Name:   "NaiveBayes",
		TableI: "The input has 100,000 pages, with 100 classes.",
		InFig8: true,
		// The paper does not list the byte size; ~1.1 GB is what such a
		// corpus occupies in HiBench's generator.
		Inputs: []Input{{"nb.docs", naiveBayesDocs, 1.1 * GB}},
		Flow:   naiveBayesFlow,
		Check:  expectExactMatch,
	}
}

// naiveBayesDocs generates labeled documents: "classXX word word ...".
// Document length, class count, and vocabulary are tuned so that map-side
// combining shrinks the shuffle input to roughly a third of the raw corpus
// — the ratio a 100k-page corpus with bounded vocabulary exhibits.
func naiveBayesDocs(seed int64) []rdd.Pair {
	rng := rand.New(rand.NewSource(seed ^ 0xba7e5))
	zipf := rand.NewZipf(rng, 1.2, 1, 199)
	const docs = 600
	const wordsPerDoc = 120
	const classes = 10
	recs := make([]rdd.Pair, docs)
	for d := 0; d < docs; d++ {
		class := fmt.Sprintf("class%02d", rng.Intn(classes))
		words := make([]string, wordsPerDoc)
		for w := range words {
			words[w] = fmt.Sprintf("term%03d", zipf.Uint64())
		}
		recs[d] = rdd.KV(fmt.Sprintf("doc%05d", d), class+" "+strings.Join(words, " "))
	}
	return recs
}

func naiveBayesFlow(ins []*rdd.RDD) *rdd.RDD {
	// Shuffle 1: count each (class, term) occurrence, combining map-side.
	termCounts := ins[0].FlatMap("nb.tokenize", func(p rdd.Pair) []rdd.Pair {
		fields := strings.Fields(p.Value.(string))
		class := fields[0]
		out := make([]rdd.Pair, 0, len(fields)-1)
		for _, w := range fields[1:] {
			out = append(out, rdd.KV(class+"\x00"+w, 1))
		}
		return out
	}).ReduceByKey("nb.termCounts", parallelism, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
	// Shuffle 2: gather each class's term table into its model row.
	model := termCounts.Map("nb.byClass", func(p rdd.Pair) rdd.Pair {
		i := strings.IndexByte(p.Key, 0)
		return rdd.KV(p.Key[:i], fmt.Sprintf("%s=%d", p.Key[i+1:], p.Value.(int)))
	}).GroupByKey("nb.model", parallelism)
	// Canonical per-class row: sorted term=count entries.
	return model.Map("nb.finalize", func(p rdd.Pair) rdd.Pair {
		vs := p.Value.([]rdd.Value)
		terms := make([]string, len(vs))
		for i, v := range vs {
			terms[i] = v.(string)
		}
		sort.Strings(terms)
		return rdd.KV(p.Key, strings.Join(terms, " "))
	})
}
