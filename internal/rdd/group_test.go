package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// groupInput draws seeded input partitions for the grouping tests: some
// empty, some too small for the radix sort and some large enough for it
// once bucketed, with keys drawn from keys so they repeat within and across
// partitions. Values are "<tag>:<position>", so arrival order is visible.
func groupInput(rng *rand.Rand, tag string, keys []string) [][]Pair {
	parts := make([][]Pair, 1+rng.Intn(3))
	seq := 0
	for i := range parts {
		var n int
		switch rng.Intn(3) {
		case 0: // empty
		case 1:
			n = 1 + rng.Intn(radixSortCutoff/2)
		default:
			n = radixSortCutoff + rng.Intn(6*radixSortCutoff)
		}
		for j := 0; j < n; j++ {
			parts[i] = append(parts[i], KV(keys[rng.Intn(len(keys))], fmt.Sprintf("%s:%d", tag, seq)))
			seq++
		}
	}
	return parts
}

// referenceGroups is the grouping written the naive way: every key's values
// in arrival order (partition by partition, record by record), and each
// reduce partition's keys in order.
func referenceGroups(parts [][]Pair, numParts int) ([][]string, map[string][]Value) {
	vals := map[string][]Value{}
	for _, part := range parts {
		for _, p := range part {
			vals[p.Key] = append(vals[p.Key], p.Value)
		}
	}
	return referenceKeys(numParts, vals), vals
}

func referenceKeys(numParts int, sides ...map[string][]Value) [][]string {
	hp := NewHashPartitioner(numParts)
	seen := map[string]bool{}
	keys := make([][]string, numParts)
	for _, side := range sides {
		for k := range side {
			if !seen[k] {
				seen[k] = true
				keys[hp.PartitionFor(k)] = append(keys[hp.PartitionFor(k)], k)
			}
		}
	}
	for _, ks := range keys {
		slices.Sort(ks)
	}
	return keys
}

// GroupByKey, CoGroup and Join under EvalLocal equal a map-based reference
// on random inputs: the same keys per reduce partition in key order, each
// key's values in arrival order, a nil for a cogroup side with no values,
// and a join's pairs left-major.
func TestGroupingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numParts := 1 + rng.Intn(4)
		pool := make([]string, 1+rng.Intn(60))
		for i := range pool {
			pool[i] = fmt.Sprintf("k%03d", rng.Intn(200))
		}
		// Each side draws from its own two thirds of the pool, so some keys
		// are on one side only.
		third := (len(pool) + 2) / 3
		leftParts := groupInput(rng, "l", pool[:len(pool)-third+1])
		rightParts := groupInput(rng, "r", pool[third-1:])

		g := NewGraph()
		left, right := inputFrom(g, leftParts...), inputFrom(g, rightParts...)

		keys, vals := referenceGroups(leftParts, numParts)
		want := make([][]Pair, numParts)
		for i, ks := range keys {
			for _, k := range ks {
				want[i] = append(want[i], KV(k, vals[k]))
			}
		}
		if got := EvalLocal(left.GroupByKey("group", numParts)); !groupsEqual(got, want) {
			t.Errorf("seed %d: GroupByKey\n got %v\nwant %v", seed, got, want)
		}

		_, rvals := referenceGroups(rightParts, numParts)
		keys = referenceKeys(numParts, vals, rvals)
		wantCG := make([][]Pair, numParts)
		wantJoin := make([][]Pair, numParts)
		for i, ks := range keys {
			for _, k := range ks {
				wantCG[i] = append(wantCG[i], KV(k, [2][]Value{vals[k], rvals[k]}))
				for _, l := range vals[k] {
					for _, r := range rvals[k] {
						wantJoin[i] = append(wantJoin[i], KV(k, []Value{l, r}))
					}
				}
			}
		}
		if got := EvalLocal(left.CoGroup("cogroup", right, numParts)); !groupsEqual(got, wantCG) {
			t.Errorf("seed %d: CoGroup\n got %v\nwant %v", seed, got, wantCG)
		}
		if got := EvalLocal(left.Join("join", right, numParts)); !groupsEqual(got, wantJoin) {
			t.Errorf("seed %d: Join\n got %v\nwant %v", seed, got, wantJoin)
		}
	}
}

// taggedSide is a record's value in taggedCoGroup: the value and the side
// it came from.
type taggedSide struct {
	side int
	v    Value
}

// taggedCoGroup is the cogroup computed by tagging, kept as the reference
// for the merge: every record wrapped with its side, both sides sorted
// together in one stable sort, and each key's values split back by side.
func taggedCoGroup(left, right []Pair) []Pair {
	var all []Pair
	for side, recs := range [2][]Pair{left, right} {
		for _, p := range recs {
			all = append(all, KV(p.Key, taggedSide{side, p.Value}))
		}
	}
	slices.SortStableFunc(all, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
	var out []Pair
	for lo := 0; lo < len(all); {
		hi := lo + 1
		for hi < len(all) && all[hi].Key == all[lo].Key {
			hi++
		}
		var groups [2][]Value
		for _, p := range all[lo:hi] {
			tv := p.Value.(taggedSide)
			groups[tv.side] = append(groups[tv.side], tv.v)
		}
		out = append(out, KV(all[lo].Key, groups))
		lo = hi
	}
	return out
}

// A CoGroup's boundary, which sorts each side's runs on its own and merges
// the two sorted sides, equals the tagging reference: the same keys in
// order, each side's values in arrival order, nil for a side without the
// key. The draws cover empty sides, keys on one side only and keys repeated
// within and across runs, on both sides of the radix-sort cutoff, and every
// group's windows end at their own length.
func TestCoGroupMergeMatchesTagging(t *testing.T) {
	cg := inputFrom(NewGraph(), nil)
	cg = cg.CoGroup("cogroup", cg, 1)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]string, 1+rng.Intn(80))
		for i := range pool {
			pool[i] = fmt.Sprintf("k%03d", rng.Intn(150))
		}
		var runs [2][][]Pair
		var whole [2][]Pair
		for side := range runs {
			// Each side draws from its own two thirds of the pool.
			keys := pool[:2*len(pool)/3+1]
			if side == 1 {
				keys = pool[len(pool)/3:]
			}
			for r := rng.Intn(4); r > 0; r-- {
				n := 0
				if rng.Intn(4) > 0 {
					n = rng.Intn(3 * radixSortCutoff)
				}
				run := make([]Pair, n)
				for i := range run {
					run[i] = KV(keys[rng.Intn(len(keys))], fmt.Sprintf("%d:%d", side, len(whole[side])+i))
				}
				runs[side] = append(runs[side], run)
				whole[side] = append(whole[side], run...)
			}
		}
		got := ReducePartition(cg, 0, [][][]Pair{runs[0], runs[1]})
		want := taggedCoGroup(whole[0], whole[1])
		if !groupsEqual([][]Pair{got}, [][]Pair{want}) {
			t.Fatalf("seed %d (%d left, %d right records):\n got %v\nwant %v", seed, len(whole[0]), len(whole[1]), got, want)
		}
		for _, p := range got {
			for side, vs := range p.Value.([2][]Value) {
				if cap(vs) != len(vs) {
					t.Fatalf("seed %d: key %s side %d has capacity %d for %d values", seed, p.Key, side, cap(vs), len(vs))
				}
			}
		}
	}
}

// groupsEqual compares evaluated partitions with a reference, an empty
// partition matching a nil one (the reference builds none for it).
func groupsEqual(got, want [][]Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if (len(got[i]) != 0 || len(want[i]) != 0) && !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// A key's values are a window of one slice shared by the partition, and a
// joined pair's two values sit beside its neighbours' in one array per key:
// an append to one key's values, to either side of a cogroup or to one
// joined pair must copy rather than write over the next one's.
func TestGroupedValuesDoNotAlias(t *testing.T) {
	g := NewGraph()
	left := inputFrom(g, pairs("a", "1", "b", "2", "a", "3", "b", "4"))
	right := inputFrom(g, pairs("a", "x", "b", "y"))

	grouped := CollectLocal(left.GroupByKey("group", 1))
	_ = append(grouped[0].Value.([]Value), "clobber")
	if got := grouped[1].Value.([]Value); !slices.Equal(got, []Value{"2", "4"}) {
		t.Errorf("appending to a's values changed b's to %v", got)
	}

	cg := CollectLocal(left.CoGroup("cogroup", right, 1))
	a, b := cg[0].Value.([2][]Value), cg[1].Value.([2][]Value)
	_ = append(a[0], "clobber")
	if !slices.Equal(a[1], []Value{"x"}) {
		t.Errorf("appending to a's left side changed its right side to %v", a[1])
	}
	_ = append(a[1], "clobber")
	if !slices.Equal(b[0], []Value{"2", "4"}) {
		t.Errorf("appending to a's right side changed b's left side to %v", b[0])
	}

	joined := CollectLocal(left.Join("join", right, 1))
	first := joined[0].Value.([]Value)
	if cap(first) != 2 {
		t.Errorf("a joined pair's capacity is %d, want 2", cap(first))
	}
	_ = append(first, "clobber")
	if got := joined[1].Value.([]Value); !slices.Equal(got, []Value{"3", "x"}) {
		t.Errorf("appending to a's first pair changed its second to %v", got)
	}
}

// Grouped values and joined pairs are interfaces over slots of arrays
// their partition allocated once (boxAs), not boxes of their own. A few of
// them, kept while everything else of their partitions is dropped, must
// read back as built after collections that reuse whatever was freed.
func TestGroupedValuesOutliveTheirPartition(t *testing.T) {
	g := NewGraph()
	var l, r []Pair
	for i := 0; i < 400; i++ {
		l = append(l, KV(fmt.Sprintf("k%03d", i%100), fmt.Sprintf("l%d", i)))
		r = append(r, KV(fmt.Sprintf("k%03d", i%100), fmt.Sprintf("r%d", i)))
	}
	left, right := inputFrom(g, l), inputFrom(g, r)
	var kept, want []Value
	for _, node := range []*RDD{
		left.GroupByKey("group", 2),
		left.CoGroup("cogroup", right, 2),
		left.Join("join", right, 2),
	} {
		recs := CollectLocal(node)
		for i := 0; i < len(recs); i += 37 {
			kept = append(kept, recs[i].Value)
			want = append(want, deepCopy(recs[i].Value))
		}
	}
	for gc := 0; gc < 2; gc++ {
		runtime.GC()
		for i := 0; i < 1000; i++ {
			pairsSink = make([]Pair, 16)
		}
	}
	for i, v := range kept {
		if !reflect.DeepEqual(v, want[i]) {
			t.Errorf("kept value %d reads %v, want %v", i, v, want[i])
		}
	}
}

// deepCopy copies a grouped or joined value into memory of its own.
func deepCopy(v Value) Value {
	switch v := v.(type) {
	case []Value:
		out := make([]Value, len(v))
		for i, e := range v {
			out[i] = deepCopy(e)
		}
		return out
	case [2][]Value:
		var out [2][]Value
		for side, vs := range v {
			if vs != nil {
				out[side] = deepCopy(vs).([]Value)
			}
		}
		return out
	}
	return v
}

// groupingShard builds one reduce partition's runs of n PageRank edges over
// k pages for node's shuffle (a Join's is its cogroup's), one run per
// dependency, in arrival order: each stretch of k records holds every page
// once, in a scrambled order. GroupByKey's records carry the destination
// page. A CoGroup's stretches alternate between the left side (a link list)
// and the right (a rank).
func groupingShard(node *RDD, n, k int) [][][]Pair {
	for node.Deps[0].Kind == DepNarrow {
		node = node.Deps[0].Parent
	}
	cogroup := len(node.Deps) == 2
	sides := make([][]Pair, len(node.Deps))
	for i := 0; i < n; i++ {
		dest := fmt.Sprintf("page%06d", i%k)
		p := KV(fmt.Sprintf("page%06d", i*7919%k), dest)
		side := 0
		switch {
		case cogroup && i/k%2 == 0:
			p.Value = []Value{dest}
		case cogroup:
			p.Value, side = float64(i), 1
		}
		sides[side] = append(sides[side], p)
	}
	runs := make([][][]Pair, len(sides))
	for d, recs := range sides {
		runs[d] = [][]Pair{recs}
	}
	return runs
}

// reducePartition runs one reduce partition of node over its shuffle's
// runs: the shuffle boundary, then the narrow operators between it and
// node (a Join's pairs), materialised.
func reducePartition(node *RDD, runs [][][]Pair) []Pair {
	if node.Deps[0].Kind == DepNarrow {
		return eachAll(node.Each, reducePartition(node.Deps[0].Parent, runs))
	}
	return ReducePartition(node, 0, runs)
}

// The grouping sorts a partition once, cuts every key's values from one
// slice and boxes every key's value over a slot of one array: the shuffle
// boundary allocates the sorted copy (one array for both of a CoGroup's
// sides), the output, the values' backing and the slots, however many keys
// and values the partition holds. A Join then costs one allocation per key,
// which holds all of that key's pairs.
func TestGroupingAllocatesPerPartitionNotPerKey(t *testing.T) {
	g := NewGraph()
	src := inputFrom(g, nil)
	const k, perPartition = 500, 4
	for name, node := range map[string]*RDD{
		"groupByKey": src.GroupByKey("group", 1),
		"cogroup":    src.CoGroup("cogroup", src, 1),
	} {
		for _, n := range []int{2 * k, 8 * k} {
			in := groupingShard(node, n, k)
			reduce := func() { pairsSink = reducePartition(node, in) }
			reduce() // warm the sort's entry pool
			allocs := testing.AllocsPerRun(10, reduce)
			// Under the race detector sync.Pool.Put drops entries on
			// purpose; ask for one run that found the pool warm instead.
			for try := 0; raceBuild() && allocs > perPartition && try < 20; try++ {
				allocs = testing.AllocsPerRun(1, reduce)
			}
			if allocs > perPartition {
				t.Errorf("%s n=%d over %d keys: %v allocations, want at most %d", name, n, k, allocs, perPartition)
			}
		}
	}

	join := src.Join("join", src, 1)
	for _, n := range []int{2 * k, 8 * k} {
		grouped := reducePartition(join.Deps[0].Parent, groupingShard(join, n, k))
		emit := func(p Pair) { pairSink = p }
		allocs := testing.AllocsPerRun(10, func() {
			for _, p := range grouped {
				join.Each(p, emit)
			}
		})
		if allocs > k {
			t.Errorf("join n=%d over %d keys: %v allocations, want at most %d", n, k, allocs, k)
		}
	}
}

var pairSink Pair

// BenchmarkGroupByKey reduces one PageRank-shaped partition of the link
// table: 4,000 edges over 1,000 pages, grouped into link lists.
func BenchmarkGroupByKey(b *testing.B) {
	benchGrouping(b, NewGraph().Input("edges", make([]InputPartition, 1)).GroupByKey("links", 1), 4000, 1000)
}

// BenchmarkCoGroup reduces one PageRank-shaped partition of a join's
// cogroup: 2,000 records, a link list and a rank for each of 1,000 pages.
func BenchmarkCoGroup(b *testing.B) {
	in := NewGraph().Input("links", make([]InputPartition, 1))
	benchGrouping(b, in.CoGroup("join", in, 1), 2000, 1000)
}

// BenchmarkJoin is BenchmarkCoGroup carried on to the joined pairs: one
// (link list, rank) pair for each of 1,000 pages.
func BenchmarkJoin(b *testing.B) {
	in := NewGraph().Input("links", make([]InputPartition, 1))
	benchGrouping(b, in.Join("join", in, 1), 2000, 1000)
}

func benchGrouping(b *testing.B, node *RDD, n, k int) {
	in := groupingShard(node, n, k)
	b.ReportAllocs()
	size := 0.0
	for _, runs := range in {
		size += SizeOfAll(runs[0])
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairsSink = reducePartition(node, in)
	}
}
