package workloads

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"wanshuffle/internal/rdd"
)

// naiveBayes trains a multinomial classifier: count (class, term)
// frequencies through a combining shuffle, then assemble the per-class
// model through a grouping shuffle — two consecutive shuffles over
// shrinking data.
func naiveBayes() *Workload {
	return &Workload{
		Name:   "NaiveBayes",
		TableI: "The input has 100,000 pages, with 100 classes.",
		InFig8: true,
		// The paper does not list the byte size; ~1.1 GB is what such a
		// corpus occupies in HiBench's generator.
		inputs: []input{{"nb.docs", naiveBayesDocs, 1.1 * gb}},
		flow:   naiveBayesFlow,
		Check:  expectExactMatch,
	}
}

// naiveBayesDocs generates labeled documents: "classXX word word ...".
// Document length, class count, and vocabulary are tuned so that map-side
// combining shrinks the shuffle input to roughly a third of the raw corpus
// — the ratio a 100k-page corpus with bounded vocabulary exhibits.
func naiveBayesDocs(seed int64) []rdd.Pair {
	const docs = 600
	const wordsPerDoc = 120
	const classes = 10
	const vocab = 200
	rng := rand.New(rand.NewSource(seed ^ 0xba7e5))
	zipf := rand.NewZipf(rng, 1.2, 1, vocab-1)
	classNames := names("class", classes, 2)
	terms := names("term", vocab, 3)
	recs := make([]rdd.Pair, docs)
	var doc []byte
	for d := range recs {
		doc = append(doc[:0], classNames[rng.Intn(classes)]...)
		for w := 0; w < wordsPerDoc; w++ {
			doc = append(doc, ' ')
			doc = append(doc, terms[zipf.Uint64()]...)
		}
		recs[d] = rdd.KV(numbered("doc", d, 5), string(doc))
	}
	return recs
}

// nbTermKeys emits one (class\x00term, 1) record per term of doc, whose
// first field is its class. Every key is a window of one string written for
// the whole document: the first pass sizes it, the second writes the keys
// and emits each as it is written. A strings.Builder grown to the exact size
// never moves or rewrites the bytes it holds, so each window stays valid and
// immutable, and a document costs one allocation, not one per term.
func nbTermKeys(doc string, emit func(rdd.Pair)) {
	class, size := "", 0 // no field is empty
	eachField(doc, func(w string) {
		if class == "" {
			class = w
			return
		}
		size += len(class) + 1 + len(w)
	})
	var b strings.Builder
	b.Grow(size)
	first := true
	eachField(doc, func(w string) {
		if first {
			first = false
			return
		}
		n := len(class) + 1 + len(w)
		b.WriteString(class)
		b.WriteByte(0)
		b.WriteString(w)
		s := b.String()
		emit(rdd.KV(s[len(s)-n:], 1))
	})
}

func naiveBayesFlow(ins []*rdd.RDD) *rdd.RDD {
	// Shuffle 1: count each (class, term) occurrence, combining map-side.
	termCounts := ins[0].MapMulti("nb.tokenize", func(p rdd.Pair, emit func(rdd.Pair)) {
		nbTermKeys(p.Value.(string), emit)
	}).ReduceByKey("nb.termCounts", parallelism, func(a, b rdd.Value) rdd.Value {
		return a.(int) + b.(int)
	})
	// Shuffle 2: gather each class's term table into its model row.
	model := termCounts.Map("nb.byClass", func(p rdd.Pair) rdd.Pair {
		i := strings.IndexByte(p.Key, 0)
		return rdd.KV(p.Key[:i], p.Key[i+1:]+"="+strconv.Itoa(p.Value.(int)))
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
