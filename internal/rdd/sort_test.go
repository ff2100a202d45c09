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
	// PageRank's keys, whose 8-byte prefix takes only twelve values.
	"pages": func(rng *rand.Rand, _, _ int) string { return fmt.Sprintf("page%06d", rng.Intn(1200)) },
	// Ties that need two re-keyings: after "deep0-shared-prefix-", then
	// after "0-more-shared-bytes-".
	"deep-shared": func(rng *rand.Rand, _, _ int) string {
		return fmt.Sprintf("deep%d-shared-prefix-%d-more-shared-bytes-%04d", rng.Intn(2), rng.Intn(2), rng.Intn(500))
	},
	// Tails that pad alike past a 16-byte shared prefix.
	"nul-past-16": func(rng *rand.Rand, _, _ int) string {
		return "sixteen-byte-pfx" + []string{"", "\x00", "a", "a\x00"}[rng.Intn(4)]
	},
	// NaiveBayes' keys: eight bytes that vary in two, the term past them.
	"class-terms": func(rng *rand.Rand, _, _ int) string {
		return fmt.Sprintf("class%02d\x00term%03d", rng.Intn(10), rng.Intn(200))
	},
	// Keys shorter than the six leading bytes all keys share zero-padded,
	// which the sort re-keys after.
	"shorter-than-shared": func(rng *rand.Rand, _, _ int) string {
		return []string{"pp", "pp\x00", "pp\x00\x00\x00\x00" + fmt.Sprintf("%03d", rng.Intn(100))}[rng.Intn(3)]
	},
	// Re-keyed after "kkwind" by the first pass, yet half the keys still
	// tie on the eight bytes after it and differ on the byte past them.
	"tied-past-rekey": func(rng *rand.Rand, _, _ int) string {
		dd := 0
		if rng.Intn(2) == 0 {
			dd = rng.Intn(100)
		}
		return fmt.Sprintf("kkwind%02dzzzzzz%d", dd, rng.Intn(1000))
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
			checkSortByKey(t, fmt.Sprintf("%s n=%d", set, n), sortInput(set, n, int64(n)+1))
		}
	}
}

// FuzzSortByKey sorts keys that share a prefix of 0–24 bytes and end in up
// to three bytes from {NUL, 'a', 'b'}: ties that pad alike at every depth
// the re-keying can reach.
func FuzzSortByKey(f *testing.F) {
	f.Add(int64(1), uint16(radixSortCutoff+1), uint8(0))
	f.Add(int64(2), uint16(500), uint8(9))
	f.Add(int64(3), uint16(3000), uint8(16))
	f.Add(int64(4), uint16(200), uint8(24))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shared uint8) {
		rng := rand.New(rand.NewSource(seed))
		prefix := strings.Repeat("s", int(shared)%25)
		recs := make([]Pair, int(n)%5000)
		for i := range recs {
			tail := make([]byte, rng.Intn(4))
			for j := range tail {
				tail[j] = "\x00ab"[rng.Intn(3)]
			}
			recs[i] = KV(prefix+string(tail), i)
		}
		checkSortByKey(t, fmt.Sprintf("shared=%d n=%d", len(prefix), len(recs)), recs)
	})
}

// checkSortByKey holds sortByKey to referenceSort on in, sorted into a copy
// and out of runs, and checks that neither writes to its input.
func checkSortByKey(t *testing.T, name string, in []Pair) {
	t.Helper()
	n := len(in)
	want := referenceSort(in)

	orig := slices.Clone(in)
	got := make([]Pair, n)
	sortByKey(got, in)
	if !slices.Equal(got, want) {
		t.Errorf("%s: sorted copy differs from the stable sort", name)
	}
	if !slices.Equal(in, orig) {
		t.Errorf("%s: sorting into a copy wrote to the input", name)
	}

	runs := splitRuns(in)
	got = make([]Pair, n)
	sortByKey(got, runs...)
	if !slices.Equal(got, want) {
		t.Errorf("%s: sorting out of runs differs from the stable sort", name)
	}
	if !slices.Equal(slices.Concat(runs...), orig) {
		t.Errorf("%s: sorting out of runs wrote to them", name)
	}
}

// DESIGN §3.5's non-mutation contract: MapSidePrepare, ReduceAggregate and
// BucketRecords are handed stored shards and leaf partitions, which a retried
// attempt or a second reader will read again, so none of them may write to its
// input — neither to the slice nor, for values they only carry, through a
// value (the []Value values here have spare capacity, so an append into one
// would show). The grouping post-shuffles are held to the same: they run over
// a stored shard's sorted aggregate. Each gets a slice, the test keeps a deep
// copy, and compares.
func TestShuffleOpsLeaveInputUnchanged(t *testing.T) {
	sum := func(a, b Value) Value { return a.(int) + b.(int) }
	specs := map[string]*ShuffleSpec{
		"sort":    {SortKeys: true},
		"combine": {Combine: sum, MapSideCombine: true},
		"plain":   {},
	}
	deepCopy := func(recs []Pair) []Pair {
		out := slices.Clone(recs)
		for i, p := range out {
			if v, ok := p.Value.([]Value); ok {
				out[i].Value = slices.Clone(v)
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
			// And over in as runs, as a reducer hands it a partition's stored
			// shards: each run's capacity reaches over other runs, so an
			// append to one would show.
			runs := splitRuns(in)
			if got := ReduceAggregate(spec, runs...); !reflect.DeepEqual(got, first) {
				t.Errorf("%s n=%d: ReduceAggregate over runs differs from the one-run call", name, n)
			}
			BucketRecords(spec, runs...)
			if !reflect.DeepEqual(slices.Concat(runs...), orig) {
				t.Errorf("%s n=%d: ReduceAggregate or BucketRecords wrote to one of its runs", name, n)
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

	g := NewGraph()
	src := inputFrom(g, nil)
	groupings := map[string]*RDD{
		"groupByKey": src.GroupByKey("group", 4),
		"cogroup":    src.CoGroup("cogroup", src, 4),
	}
	for name, node := range groupings {
		for _, n := range []int{radixSortCutoff - 1, 5000} {
			shard := sortInput("duplicates", n, 3)
			sides := make([][]Pair, len(node.Deps))
			for i := range shard {
				shard[i].Value = append(make([]Value, 0, 4), i, "v")
				sides[i%len(sides)] = append(sides[i%len(sides)], shard[i])
			}
			runs := make([][][]Pair, len(sides))
			sorted := make([][]Pair, len(sides))
			var origRuns, origSorted [][]Pair
			for d, side := range sides {
				runs[d] = splitRuns(side)
				sorted[d] = ReduceAggregate(node.Deps[d].Shuffle, runs[d]...)
				origRuns = append(origRuns, deepCopy(side))
				origSorted = append(origSorted, deepCopy(sorted[d]))
			}
			first := node.PostShuffle(0, sorted)
			second := node.PostShuffle(0, sorted)
			if !reflect.DeepEqual(sorted, origSorted) {
				t.Errorf("%s n=%d: PostShuffle wrote to its input", name, n)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("%s n=%d: PostShuffle gave two answers for one input", name, n)
			}
			if got := ReducePartition(node, 0, runs); !reflect.DeepEqual(got, first) {
				t.Errorf("%s n=%d: the shuffle boundary differs from PostShuffle over the aggregates", name, n)
			}
			for d := range runs {
				if !reflect.DeepEqual(slices.Concat(runs[d]...), origRuns[d]) {
					t.Errorf("%s n=%d: the shuffle boundary wrote to dependency %d's runs", name, n, d)
				}
			}
		}
	}
}

// splitRuns cuts recs into eight runs of uneven length, the third one empty,
// laid out by asRuns so that a run's spare capacity holds other runs.
func splitRuns(recs []Pair) [][]Pair {
	lens := make([]int, 8)
	rest := len(recs)
	for i := range lens[:7] {
		if i != 2 {
			lens[i] = len(recs) * (i + 1) / 36
			rest -= lens[i]
		}
	}
	lens[7] = rest
	return asRuns(recs, lens)
}

// A warm sort allocates its output slice and nothing else: the entries
// come from the pool, and a partition in eight runs is permuted straight
// out of them into that output.
func TestReduceAggregateSortAllocatesOnlyItsOutput(t *testing.T) {
	spec := &ShuffleSpec{SortKeys: true}
	for _, c := range []struct {
		set string
		n   int
	}{{"digits", radixSortCutoff - 1}, {"digits", 5000}, {"pages", 5000}} {
		n, in := c.n, sortInput(c.set, c.n, 9)
		for _, runs := range [][][]Pair{{in}, splitRuns(in)} {
			ReduceAggregate(spec, runs...) // warm the pool
			allocs := testing.AllocsPerRun(20, func() { ReduceAggregate(spec, runs...) })
			// Under the race detector sync.Pool.Put drops one entry in four on
			// purpose, so the mean cannot hold there (it fails at any commit);
			// a race build asks for one run that found the pool warm instead.
			for try := 0; raceBuild() && allocs > 1 && try < 20; try++ {
				allocs = testing.AllocsPerRun(1, func() { ReduceAggregate(spec, runs...) })
			}
			if allocs > 1 {
				t.Errorf("%s n=%d, %d runs: %v allocations per sorting ReduceAggregate, want 1", c.set, n, len(runs), allocs)
			}
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
// cannot tell apart, heavy duplication, a pagerank-push reduce partition
// (page keys with twelve 8-byte prefixes) and one eight times its size, a
// NaiveBayes reduce partition (300 of its 2,000 class and term keys) and a
// small partition.
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
	{"pagerank-1500", func() []Pair { return sortInput("pages", 1500, 1) }},
	{"pages-12k", func() []Pair { return sortInput("pages", 12500, 1) }},
	{"class-terms-300", func() []Pair {
		recs := make([]Pair, 300)
		for i, j := range rand.New(rand.NewSource(1)).Perm(2000)[:len(recs)] {
			recs[i] = KV(fmt.Sprintf("class%02d\x00term%03d", j/200, j%200), 1)
		}
		return recs
	}},
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

// BenchmarkReduceAggregate sorts one sort-push-sized reduce partition
// handed over whole and as eight runs, the map outputs' shards a reducer
// reads.
func BenchmarkReduceAggregate(b *testing.B) {
	spec := &ShuffleSpec{SortKeys: true}
	recs := sortInput("digits", 12500, 1)
	for _, in := range []struct {
		name string
		runs [][]Pair
	}{{"1-run", [][]Pair{recs}}, {"8-runs", splitRuns(recs)}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(SizeOfAll(recs)))
			for i := 0; i < b.N; i++ {
				sortSink = ReduceAggregate(spec, in.runs...)
			}
		})
	}
}

var boundarySink *rangePartitioner

// BenchmarkRangePrepare installs a sort's boundaries at the map-stage
// barrier: 24 map outputs' samples of 1,000 digit keys each, cut into eight
// shards (the workloads' parallelism).
func BenchmarkRangePrepare(b *testing.B) {
	var sample []string
	for _, p := range sortInput("digits", 24*rangeSampleKeys, 1) {
		sample = append(sample, p.Key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundarySink = NewRangePartitioner(8)
		boundarySink.Prepare(sample)
	}
}
