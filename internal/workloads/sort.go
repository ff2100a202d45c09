package workloads

import (
	"math/rand"

	"wanshuffle/internal/rdd"
)

// Sort globally sorts random key-value records through a range-partitioned
// shuffle. Its map output equals its input: the entire dataset crosses the
// shuffle, making it the paper's low-end case for traffic reduction (~16%).
func Sort() *Workload {
	return &Workload{
		Name:   "Sort",
		TableI: "The total size of generated input data is 320 MB.",
		InFig8: true,
		inputs: []input{{"sort.input", sortRecords(0x50f7), 320 * mb}},
		flow: func(ins []*rdd.RDD) *rdd.RDD {
			return ins[0].SortByKey("sort.sorted", parallelism)
		},
		Check: expectSortedMatch,
	}
}

// sortPayload is every sort record's opaque 52-byte value: the alphabet
// twice. Records share it; nothing writes to a string.
const sortPayload = "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyz"

// sortRecords generates HiBench-style random records: a short random key
// and an opaque payload.
func sortRecords(salt int64) func(seed int64) []rdd.Pair {
	return func(seed int64) []rdd.Pair {
		rng := rand.New(rand.NewSource(seed ^ salt))
		recs := make([]rdd.Pair, 4000)
		for i := range recs {
			recs[i] = rdd.KV(numbered("", rng.Intn(1<<30), 10), sortPayload)
		}
		return recs
	}
}
