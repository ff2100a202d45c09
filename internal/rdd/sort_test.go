package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// referenceSort is the sort sortByKey replaced: the standard stable sort
// under byte-wise key order.
func referenceSort(recs []Pair) []Pair {
	out := slices.Clone(recs)
	slices.SortStableFunc(out, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// sortKeySets are the key shapes the sort must order exactly like
// referenceSort. Values are the input positions, so two records with the
// same key are distinguishable and a stability slip shows.
var sortKeySets = map[string]func(rng *rand.Rand, i, n int) string{
	"digits": func(rng *rand.Rand, _, _ int) string { return fmt.Sprintf("%010d", rng.Intn(1<<30)) },
	"short-words": func(rng *rand.Rand, _, _ int) string {
		return strings.Repeat("w", rng.Intn(5)) + fmt.Sprint(rng.Intn(50))
	},
	"duplicates":    func(rng *rand.Rand, _, _ int) string { return fmt.Sprintf("dup-%02d", rng.Intn(7)) },
	"shared-prefix": func(rng *rand.Rand, _, _ int) string { return fmt.Sprintf("shared-prefix-%06d", rng.Intn(4000)) },
	"empty-and-nul": func(rng *rand.Rand, _, _ int) string {
		return []string{"", "a", "a\x00", "a\x00\x00", "\x00", "b"}[rng.Intn(6)]
	},
	"high-bytes": func(rng *rand.Rand, _, _ int) string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(0x70 + rng.Intn(0x90))
		}
		return string(b)
	},
	"sorted":   func(_ *rand.Rand, i, _ int) string { return fmt.Sprintf("k%08d", i/2) },
	"reversed": func(_ *rand.Rand, i, n int) string { return fmt.Sprintf("k%08d", (n-i)/2) },
}

func sortInput(set string, n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = KV(sortKeySets[set](rng, i, n), i)
	}
	return recs
}

func TestSortByKeyMatchesStableSort(t *testing.T) {
	sizes := []int{0, 1, radixSortCutoff - 1, radixSortCutoff, radixSortCutoff + 1, 5000}
	for set := range sortKeySets {
		for _, n := range sizes {
			in := sortInput(set, n, int64(n)+1)
			want := referenceSort(in)

			orig := slices.Clone(in)
			got := make([]Pair, n)
			sortByKey(got, in)
			if !slices.Equal(got, want) {
				t.Errorf("%s n=%d: sorted copy differs from the stable sort", set, n)
			}
			if !slices.Equal(in, orig) {
				t.Errorf("%s n=%d: sorting into a copy wrote to the input", set, n)
			}

			sortByKey(in, in)
			if !slices.Equal(in, want) {
				t.Errorf("%s n=%d: in-place sort differs from the stable sort", set, n)
			}
		}
	}
}

// DESIGN §3.5's non-mutation contract: MapSidePrepare, ReduceAggregate and
// BucketRecords are handed stored shards and leaf partitions, which a retried
// attempt or a second reader will read again, so none of them may write to its
// input — neither to the slice nor, for values they only carry, through a
// value (the []Value values here have spare capacity, so an append into one
// would show). Each gets a slice, the test keeps a deep copy, and compares.
func TestShuffleOpsLeaveInputUnchanged(t *testing.T) {
	sum := func(a, b Value) Value { return a.(int) + b.(int) }
	specs := map[string]*ShuffleSpec{
		"sort":    {SortKeys: true},
		"combine": {Combine: sum, MapSideCombine: true},
		"group":   {GroupAll: true},
		"plain":   {},
	}
	deepCopy := func(recs []Pair) []Pair {
		out := slices.Clone(recs)
		for i, p := range out {
			if vs, ok := p.Value.([]Value); ok {
				out[i].Value = slices.Clone(vs)
			}
		}
		return out
	}
	for name, spec := range specs {
		spec.Partitioner = NewHashPartitioner(4)
		for _, n := range []int{radixSortCutoff - 1, 5000} {
			in := sortInput("duplicates", n, 3)
			if spec.Combine == nil {
				for i := range in {
					in[i].Value = append(make([]Value, 0, 4), i, "v")
				}
			}
			orig := deepCopy(in)
			// Twice over the same slice, as perf/layers.go and EvalLocal do.
			first := ReduceAggregate(spec, in)
			second := ReduceAggregate(spec, in)
			if !reflect.DeepEqual(in, orig) {
				t.Errorf("%s n=%d: ReduceAggregate wrote to its input", name, n)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("%s n=%d: ReduceAggregate gave two answers for one input", name, n)
			}
			MapSidePrepare(spec, in)
			if !reflect.DeepEqual(in, orig) {
				t.Errorf("%s n=%d: MapSidePrepare wrote to its input", name, n)
			}
			BucketRecords(spec, in)
			if !reflect.DeepEqual(in, orig) {
				t.Errorf("%s n=%d: BucketRecords wrote to its input", name, n)
			}
		}
	}
}

// A warm sort allocates its output slice and nothing else: the entries
// come from the pool.
func TestReduceAggregateSortAllocatesOnlyItsOutput(t *testing.T) {
	spec := &ShuffleSpec{SortKeys: true}
	for _, n := range []int{radixSortCutoff - 1, 5000} {
		in := sortInput("digits", n, 9)
		ReduceAggregate(spec, in) // warm the pool
		allocs := testing.AllocsPerRun(20, func() { ReduceAggregate(spec, in) })
		// Under the race detector sync.Pool.Put drops one entry in four on
		// purpose, so the mean cannot hold there (it fails at any commit);
		// a race build asks for one run that found the pool warm instead.
		for try := 0; raceBuild() && allocs > 1 && try < 20; try++ {
			allocs = testing.AllocsPerRun(1, func() { ReduceAggregate(spec, in) })
		}
		if allocs > 1 {
			t.Errorf("n=%d: %v allocations per sorting ReduceAggregate, want 1", n, allocs)
		}
	}
}

// raceBuild reports whether this test binary was built with -race.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

func TestBucketRecordsPresized(t *testing.T) {
	spec := &ShuffleSpec{Partitioner: NewHashPartitioner(8)}
	in := sortInput("digits", 1000, 5)
	var want [8][]Pair
	for _, p := range in {
		i := spec.Partitioner.PartitionFor(p.Key)
		want[i] = append(want[i], p)
	}
	got := BucketRecords(spec, in)
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("bucket %d differs from an append loop in input order", i)
		}
		if cap(got[i]) != len(got[i]) {
			t.Errorf("bucket %d: cap %d for %d records", i, cap(got[i]), len(got[i]))
		}
	}
	if got := BucketRecords(spec, in[:1]); len(got) != 8 || got[(spec.Partitioner.PartitionFor(in[0].Key)+1)%8] != nil {
		t.Errorf("empty buckets should stay nil: %v", got)
	}
}

var sortSink []Pair

// benchSortInputs are the partitions the benchmarks sort: one sort-push
// reduce partition, one wordcount-sized combine output, keys the prefix
// cannot tell apart, heavy duplication, and a pagerank-sized partition.
var benchSortInputs = []struct {
	name string
	recs func() []Pair
}{
	{"sort-12k", func() []Pair { return sortInput("digits", 12500, 1) }},
	{"words-5k", func() []Pair {
		recs := make([]Pair, 5000)
		for i, j := range rand.New(rand.NewSource(1)).Perm(len(recs)) {
			recs[i] = KV(fmt.Sprintf("lexeme%04d", j), 1)
		}
		return recs
	}},
	{"shared-prefix-12k", func() []Pair { return sortInput("shared-prefix", 12500, 1) }},
	{"dup-keys-12k", func() []Pair { return sortInput("duplicates", 12500, 1) }},
	{"n=32", func() []Pair { return sortInput("digits", 32, 1) }},
}

func BenchmarkSortByKey(b *testing.B) {
	for _, in := range benchSortInputs {
		recs := in.recs()
		out := make([]Pair, len(recs))
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(SizeOfAll(recs)))
			for i := 0; i < b.N; i++ {
				sortByKey(out, recs)
			}
		})
		// The sort this package used before, on the same input, for the
		// no-slower comparisons CHANGES.md quotes.
		b.Run(in.name+"/stdlib-stable", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(SizeOfAll(recs)))
			for i := 0; i < b.N; i++ {
				copy(out, recs)
				slices.SortStableFunc(out, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
			}
		})
	}
}

func BenchmarkReduceAggregate(b *testing.B) {
	spec := &ShuffleSpec{SortKeys: true}
	recs := sortInput("digits", 12500, 1)
	b.ReportAllocs()
	b.SetBytes(int64(SizeOfAll(recs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortSink = ReduceAggregate(spec, recs)
	}
}
