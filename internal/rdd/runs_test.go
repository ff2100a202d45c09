package rdd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// asRuns copies recs into runs of the given lengths (summing to len(recs)),
// each a window of one backing array whose capacity runs on to the array's
// end. The first run comes first in memory and the others follow back to
// front, so every non-empty run but the last in memory has other runs in its
// spare capacity: a shuffle op that appended to a run, or wrote past one,
// would overwrite another.
func asRuns(recs []Pair, lens []int) [][]Pair {
	back := make([]Pair, len(recs))
	runs := make([][]Pair, len(lens))
	lo, hi := 0, len(back)
	for i, n := range lens {
		at := hi - n
		if i == 0 {
			at = 0
		} else {
			hi = at
		}
		runs[i] = back[at : at+n : len(back)]
		copy(runs[i], recs[lo:lo+n])
		lo += n
	}
	return runs
}

// runsInput draws n seeded records over keys distinct keys, all starting
// with the same shared bytes (past eight, a sort must re-key its ties), with
// float64 values of mixed magnitude (so a sum's rounding depends on its
// order), and cuts them into nruns runs at random points (asRuns). Cut points
// may coincide, so runs can be empty; nruns == 0 gives no runs at all, which
// only an empty input is.
func runsInput(seed int64, n, keys, shared, nruns int) ([]Pair, [][]Pair) {
	rng := rand.New(rand.NewSource(seed))
	prefix := strings.Repeat("p", shared)
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = KV(fmt.Sprintf("%sk%03d", prefix, rng.Intn(keys)), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12))))
	}
	if nruns == 0 {
		if n > 0 {
			nruns = 1
		} else {
			return recs, nil
		}
	}
	cuts := make([]int, nruns-1)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	slices.Sort(cuts)
	lens := make([]int, 0, nruns)
	lo := 0
	for _, hi := range append(cuts, n) {
		lens = append(lens, hi-lo)
		lo = hi
	}
	return recs, asRuns(recs, lens)
}

// sameRecords reports whether a and b hold the same records, float values
// compared bit for bit.
func sameRecords(a, b []Pair) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, aok := a[i].Value.(float64)
		fb, bok := b[i].Value.(float64)
		if aok && bok {
			if a[i].Key != b[i].Key || math.Float64bits(fa) != math.Float64bits(fb) {
				return false
			}
		} else if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkRunsMatchConcatenation holds ReduceAggregate and BucketRecords over
// runs to the same call over their concatenation recs, for the sort, combine
// and plain specs and for GroupByKey's and CoGroup's shuffle boundary
// (ReducePartition), and checks that no run was written to.
func checkRunsMatchConcatenation(t *testing.T, recs []Pair, runs [][]Pair) {
	t.Helper()
	orig := slices.Clone(recs)
	origRuns := make([][]Pair, len(runs))
	for i, run := range runs {
		origRuns[i] = slices.Clone(run)
	}
	sum := func(a, b Value) Value { return a.(float64) + b.(float64) }
	specs := []struct {
		name string
		spec *ShuffleSpec
	}{
		{"sort", &ShuffleSpec{SortKeys: true}},
		{"combine", &ShuffleSpec{Combine: sum, MapSideCombine: true}},
		{"plain", &ShuffleSpec{}},
	}
	for _, s := range specs {
		s.spec.Partitioner = NewHashPartitioner(5)
		if got, want := ReduceAggregate(s.spec, runs...), ReduceAggregate(s.spec, recs); !sameRecords(got, want) {
			t.Errorf("%s: ReduceAggregate over %d runs differs from the one-run call:\n got %v\nwant %v", s.name, len(runs), got, want)
		}
		got, want := BucketRecords(s.spec, runs...), BucketRecords(s.spec, recs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BucketRecords over %d runs differs from bucketing the concatenation", s.name, len(runs))
		}
		for k, b := range got {
			if cap(b) != len(b) {
				t.Errorf("%s: bucket %d has cap %d for %d records", s.name, k, cap(b), len(b))
			}
		}
	}

	// The groupings read their values' arrival order, so a run boundary that
	// moved a record would show. CoGroup's sides take every other record, so
	// each run of recs is one run of each side.
	var sides [2][][]Pair
	at := 0
	for _, run := range runs {
		var halves [2][]Pair
		for _, p := range run {
			halves[at%2] = append(halves[at%2], p)
			at++
		}
		sides[0], sides[1] = append(sides[0], halves[0]), append(sides[1], halves[1])
	}
	g := NewGraph()
	src := inputFrom(g, nil)
	group := func(name string, node *RDD, whole, split [][][]Pair) {
		if got, want := ReducePartition(node, 0, split), ReducePartition(node, 0, whole); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the shuffle boundary over the runs differs from the one-run call", name)
		}
	}
	group("groupByKey", src.GroupByKey("group", 3), [][][]Pair{{recs}}, [][][]Pair{runs})
	group("cogroup", src.CoGroup("cogroup", src, 3),
		[][][]Pair{{slices.Concat(sides[0]...)}, {slices.Concat(sides[1]...)}}, sides[:])

	for i, run := range runs {
		if !slices.Equal(run, origRuns[i]) {
			t.Errorf("a shuffle op wrote to run %d of %d", i, len(runs))
		}
	}
	if !slices.Equal(recs, orig) {
		t.Error("a shuffle op wrote to its one-run input")
	}
}

// Any split of a reduce partition into runs — stored shards and fetched
// chunks, in map order — aggregates and buckets as the whole partition does:
// same records in the same order, float sums bit for bit, because the fold
// order is the runs' order.
func TestReduceAggregateRunsMatchConcatenation(t *testing.T) {
	for _, n := range []int{0, 1, radixSortCutoff - 1, radixSortCutoff + 1, 2000} {
		for _, nruns := range []int{0, 1, 2, 8, 40} {
			if nruns == 0 && n > 0 {
				continue // only an empty partition has no runs
			}
			for _, keys := range []int{1, 7, 500} {
				for _, shared := range []int{0, 12} {
					recs, runs := runsInput(int64(n*1000+nruns*10+keys), n, keys, shared, nruns)
					name := fmt.Sprintf("n=%d/runs=%d/keys=%d", n, nruns, keys)
					if shared > 0 {
						name = fmt.Sprintf("shared=%d/%s", shared, name)
					}
					t.Run(name, func(t *testing.T) {
						checkRunsMatchConcatenation(t, recs, runs)
					})
				}
			}
		}
	}
}

func FuzzReduceAggregateRuns(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(3), uint8(0))
	f.Add(int64(2), uint16(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint16(radixSortCutoff+1), uint8(8), uint8(7), uint8(0))
	f.Add(int64(4), uint16(3000), uint8(30), uint8(200), uint8(0))
	f.Add(int64(5), uint16(2000), uint8(8), uint8(60), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nruns, keys, shared uint8) {
		size := int(n) % 5000
		recs, runs := runsInput(seed, size, int(keys)+1, int(shared)%25, int(nruns)%64)
		checkRunsMatchConcatenation(t, recs, runs)
	})
}
