package rdd

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// inputFrom builds a leaf RDD from groups of records, one partition per
// group, all pinned to host 0 with 1 KB modeled size.
func inputFrom(g *Graph, groups ...[]Pair) *RDD {
	parts := make([]InputPartition, len(groups))
	for i, recs := range groups {
		parts[i] = InputPartition{Host: 0, ModeledBytes: 1024, Records: recs}
	}
	return g.Input("in", parts)
}

func pairs(kvs ...string) []Pair {
	if len(kvs)%2 != 0 {
		panic("odd kvs")
	}
	out := make([]Pair, 0, len(kvs)/2)
	for i := 0; i < len(kvs); i += 2 {
		out = append(out, KV(kvs[i], kvs[i+1]))
	}
	return out
}

func sortedCollect(r *RDD) []Pair {
	out := CollectLocal(r)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return fmt.Sprint(out[i].Value) < fmt.Sprint(out[j].Value)
	})
	return out
}

func TestMapFilterMapMulti(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, pairs("a", "1 2", "b", "3"), pairs("c", "4 5 6"))
	words := in.MapMulti("split", func(p Pair, emit func(Pair)) {
		for _, w := range strings.Fields(p.Value.(string)) {
			emit(KV(w, 1))
		}
	})
	big := words.Filter("big", func(p Pair) bool { return p.Key >= "3" })
	tagged := big.Map("tag", func(p Pair) Pair { return KV("n"+p.Key, p.Value) })
	got := sortedCollect(tagged)
	want := []string{"n3", "n4", "n5", "n6"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want keys %v", got, want)
	}
	for i, k := range want {
		if got[i].Key != k {
			t.Fatalf("got %v, want keys %v", got, want)
		}
	}
}

func TestReduceByKey(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g,
		pairs("a", "", "b", "", "a", ""),
		pairs("b", "", "c", "", "a", ""),
	)
	ones := in.Map("one", func(p Pair) Pair { return KV(p.Key, 1) })
	counts := ones.ReduceByKey("count", 3, func(a, b Value) Value { return a.(int) + b.(int) })
	got := sortedCollect(counts)
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for _, p := range got {
		if p.Value.(int) != want[p.Key] {
			t.Fatalf("key %s = %v, want %d", p.Key, p.Value, want[p.Key])
		}
	}
}

func TestGroupByKeyGathersValues(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, pairs("a", "1", "b", "2"), pairs("a", "3"))
	grouped := in.GroupByKey("group", 2)
	got := sortedCollect(grouped)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if vs := got[0].Value.([]Value); len(vs) != 2 {
		t.Fatalf("a grouped to %v, want 2 values", vs)
	}
}

func TestSortByKeyGlobalOrder(t *testing.T) {
	g := NewGraph()
	rng := rand.New(rand.NewSource(1))
	var parts [][]Pair
	for p := 0; p < 4; p++ {
		var recs []Pair
		for i := 0; i < 50; i++ {
			recs = append(recs, KV(fmt.Sprintf("%06d", rng.Intn(100000)), "v"))
		}
		parts = append(parts, recs)
	}
	in := inputFrom(g, parts...)
	sorted := in.SortByKey("sort", 3)
	out := EvalLocal(sorted)
	var all []string
	for _, part := range out {
		for _, p := range part {
			all = append(all, p.Key)
		}
	}
	if len(all) != 200 {
		t.Fatalf("lost records: %d", len(all))
	}
	if !sort.StringsAreSorted(all) {
		t.Fatal("concatenated partitions are not globally sorted")
	}
}

func TestJoin(t *testing.T) {
	g := NewGraph()
	left := inputFrom(g, pairs("a", "l1", "b", "l2"))
	right := inputFrom(g, pairs("a", "r1", "a", "r2", "c", "r3"))
	joined := left.Join("join", right, 2)
	got := sortedCollect(joined)
	if len(got) != 2 {
		t.Fatalf("join produced %v, want 2 records for key a", got)
	}
	for _, p := range got {
		if p.Key != "a" {
			t.Fatalf("unexpected join key %q", p.Key)
		}
		vs := p.Value.([]Value)
		if vs[0].(string) != "l1" {
			t.Fatalf("left side = %v", vs[0])
		}
	}
}

func TestCoGroup(t *testing.T) {
	g := NewGraph()
	left := inputFrom(g, pairs("a", "l", "b", "l"))
	right := inputFrom(g, pairs("b", "r"))
	cg := left.CoGroup("cg", right, 2)
	got := sortedCollect(cg)
	if len(got) != 2 {
		t.Fatalf("cogroup = %v", got)
	}
	for _, p := range got {
		groups := p.Value.([2][]Value)
		switch p.Key {
		case "a":
			if len(groups[0]) != 1 || len(groups[1]) != 0 {
				t.Fatalf("a groups = %v", groups)
			}
		case "b":
			if len(groups[0]) != 1 || len(groups[1]) != 1 {
				t.Fatalf("b groups = %v", groups)
			}
		}
	}
}

func TestTransferToMarksLineage(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, pairs("a", "1"))
	tr := in.TransferTo(2)
	if tr.Transfer == nil || tr.Transfer.Auto || tr.Transfer.DC != 2 {
		t.Fatalf("TransferTo spec = %+v", tr.Transfer)
	}
	auto := in.TransferToAuto()
	if auto.Transfer == nil || !auto.Transfer.Auto {
		t.Fatalf("TransferToAuto spec = %+v", auto.Transfer)
	}
	// Identity semantics.
	got := sortedCollect(tr)
	if len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("transfer changed data: %v", got)
	}
}

func TestCacheChain(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, pairs("a", "1"))
	m := in.Map("m", func(p Pair) Pair { return p })
	if r := m.Cache(); r != m || !r.Cached {
		t.Fatalf("Cache() = %+v, want the same RDD marked cached", r)
	}
}

// TestValidateCatchesBadGraphs hand-builds graphs the operators cannot: a
// leaf without input, a narrow RDD without an operator and, since a narrow
// RDD reads partition p of its one parent, one with two parents, one with
// another partition count than its parent's, a map-side combine into a range
// partitioner, and a narrow and a shuffle dependency side by side. Each is
// rejected with an error naming it.
func TestValidateCatchesBadGraphs(t *testing.T) {
	g := NewGraph()
	in := inputFrom(g, pairs("a", "1"))
	ok := in.Map("m", func(p Pair) Pair { return p })
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	id := func(p Pair) Pair { return p }
	for _, tc := range []struct {
		name  string
		build func(g *Graph) *RDD
	}{
		{"leaf without input", func(g *Graph) *RDD {
			return g.register(&RDD{Name: "bad", numParts: 1, graph: g})
		}},
		{"narrow without an operator", func(g *Graph) *RDD {
			return g.register(&RDD{
				Name: "bad", numParts: 1,
				Deps:  []Dependency{{Kind: DepNarrow, Parent: inputFrom(g, pairs("a", "1"))}},
				graph: g,
			})
		}},
		{"two parents", func(g *Graph) *RDD {
			m := inputFrom(g, pairs("a", "1")).Map("bad", id)
			m.Deps = append(m.Deps, Dependency{Kind: DepNarrow, Parent: inputFrom(g, pairs("b", "2"))})
			return m
		}},
		{"other partition count", func(g *Graph) *RDD {
			m := inputFrom(g, pairs("a", "1")).Map("bad", id)
			m.Deps[0].Parent = inputFrom(g, pairs("a", "1"), pairs("b", "2"))
			return m
		}},
		{"narrow beside a shuffle", func(g *Graph) *RDD {
			m := inputFrom(g, pairs("a", "1")).Map("bad", id)
			m.Deps = append(m.Deps, inputFrom(g, pairs("b", "2")).ReduceByKey("r", 1, nil).Deps[0])
			return m
		}},
		{"map-side combine into a range partitioner", func(g *Graph) *RDD {
			r := inputFrom(g, pairs("a", "1")).ReduceByKey("bad", 2, nil)
			r.Deps[0].Shuffle.Combine = func(a, _ Value) Value { return a }
			r.Deps[0].Shuffle.Partitioner = NewRangePartitioner(2)
			return r
		}},
		{"shuffle beside a narrow", func(g *Graph) *RDD {
			cg := inputFrom(g, pairs("a", "1")).CoGroup("bad", inputFrom(g, pairs("b", "2")), 1)
			cg.Deps[1] = Dependency{Kind: DepNarrow, Parent: inputFrom(g, pairs("c", "3"))}
			return cg
		}},
	} {
		err := tc.build(NewGraph()).Map("top", id).Validate()
		if err == nil || !strings.Contains(err.Error(), `"bad"`) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, "bad")
		}
	}
}

func TestHashPartitionerDeterministic(t *testing.T) {
	p := NewHashPartitioner(8)
	for _, k := range []string{"", "a", "hello", "ключ"} {
		first := p.PartitionFor(k)
		if first < 0 || first >= 8 {
			t.Fatalf("PartitionFor(%q) = %d out of range", k, first)
		}
		if p.PartitionFor(k) != first {
			t.Fatalf("PartitionFor(%q) nondeterministic", k)
		}
	}
}

func TestRangePartitionerOrdersShards(t *testing.T) {
	p := NewRangePartitioner(4)
	if p.Ready() {
		t.Fatal("unprepared partitioner reports Ready")
	}
	var sample []string
	for i := 0; i < 100; i++ {
		sample = append(sample, fmt.Sprintf("%03d", i))
	}
	p.Prepare(sample)
	if !p.Ready() {
		t.Fatal("prepared partitioner not Ready")
	}
	last := -1
	for i := 0; i < 100; i++ {
		shard := p.PartitionFor(fmt.Sprintf("%03d", i))
		if shard < last {
			t.Fatalf("key %03d in shard %d after shard %d", i, shard, last)
		}
		last = shard
	}
	if last != 3 {
		t.Fatalf("largest keys in shard %d, want 3", last)
	}
}

func TestRangePartitionerUnpreparedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRangePartitioner(2).PartitionFor("x")
}

// TestSizeOfCoversTypes sizes a record of every kind in the record value set
// (codecKinds, the list the codec's round trip reads too).
func TestSizeOfCoversTypes(t *testing.T) {
	for _, k := range codecKinds {
		if got := SizeOf(k.rec); got != k.size {
			t.Errorf("SizeOf(%v) = %v, want %v", k.rec, got, k.size)
		}
	}
	if got := SizeOfAll(pairs("a", "x", "b", "y")); got != 2*(1+1+16) {
		t.Errorf("SizeOfAll = %v", got)
	}
}

// Both of a CoGroup's shuffles are sides, priced one byte per record above
// SizeOfAll; any other shuffle is priced at SizeOfAll.
func TestShuffledSizeChargesCoGroupSides(t *testing.T) {
	g := NewGraph()
	left, right := inputFrom(g, nil), inputFrom(g, nil)
	recs := pairs("a", "x", "b", "yy", "a", "z")
	for _, d := range left.CoGroup("cogroup", right, 2).Deps {
		if got, want := ShuffledSize(d.Shuffle, recs), SizeOfAll(recs)+3; got != want {
			t.Errorf("side %s: ShuffledSize = %v, want SizeOfAll + 3 = %v", d.Parent.Name, got, want)
		}
	}
	if got, want := ShuffledSize(left.GroupByKey("group", 2).Deps[0].Shuffle, recs), SizeOfAll(recs); got != want {
		t.Errorf("GroupByKey: ShuffledSize = %v, want SizeOfAll = %v", got, want)
	}
}

// A join or cogroup record's value is a [2][]Value: sizing its halves boxes
// neither into a Value, so sizing the record allocates nothing.
func TestSizeOfJoinRecordAllocatesNothing(t *testing.T) {
	p := KV("k", [2][]Value{{1, "ab"}, nil})
	var got float64
	if allocs := testing.AllocsPerRun(100, func() { got = SizeOf(p) }); allocs != 0 {
		t.Errorf("SizeOf of a [2][]Value record made %v allocations, want 0", allocs)
	}
	if want := float64(1 + (24 + 8 + 2) + 24 + 16); got != want {
		t.Errorf("SizeOf = %v, want %v", got, want)
	}
}

func TestSizeOfUnknownTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown type")
		}
	}()
	SizeOf(KV("k", struct{ X int }{1}))
}

// Property: ReduceByKey result equals grouping then folding, for random
// multisets of keyed integers.
func TestQuickReduceEqualsGroupFold(t *testing.T) {
	f := func(keys []uint8, vals []int8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if n == 0 {
			return true
		}
		recs := make([]Pair, 0, n)
		want := map[string]int{}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", keys[i]%16)
			recs = append(recs, KV(k, int(vals[i])))
			want[k] += int(vals[i])
		}
		g := NewGraph()
		in := inputFrom(g, recs[:n/2], recs[n/2:])
		sum := in.ReduceByKey("sum", 4, func(a, b Value) Value { return a.(int) + b.(int) })
		got := CollectLocal(sum)
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if p.Value.(int) != want[p.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortByKey output, concatenated across partitions, is a sorted
// permutation of the input.
func TestQuickSortByKey(t *testing.T) {
	f := func(raw []uint16, nParts uint8) bool {
		if len(raw) == 0 {
			return true
		}
		parts := int(nParts%6) + 1
		recs := make([]Pair, len(raw))
		wantKeys := make([]string, len(raw))
		for i, r := range raw {
			k := fmt.Sprintf("%05d", r)
			recs[i] = KV(k, i)
			wantKeys[i] = k
		}
		g := NewGraph()
		in := inputFrom(g, recs)
		sorted := in.SortByKey("sort", parts)
		var gotKeys []string
		for _, part := range EvalLocal(sorted) {
			for _, p := range part {
				gotKeys = append(gotKeys, p.Key)
			}
		}
		sort.Strings(wantKeys)
		if len(gotKeys) != len(wantKeys) {
			return false
		}
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: hash partitioner spreads keys across all shards for reasonably
// many distinct keys, and bucketing conserves records.
func TestQuickBucketingConservation(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		spec := &ShuffleSpec{Partitioner: NewHashPartitioner(n)}
		recs := make([]Pair, len(raw))
		for i, r := range raw {
			recs[i] = KV(fmt.Sprintf("%d", r), nil)
		}
		buckets := BucketRecords(spec, recs)
		if len(buckets) != n {
			return false
		}
		total := 0
		for _, b := range buckets {
			total += len(b)
		}
		return total == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMapSidePrepareCombines(t *testing.T) {
	spec := &ShuffleSpec{
		Partitioner:    NewHashPartitioner(2),
		MapSideCombine: true,
		Combine:        func(a, b Value) Value { return a.(int) + b.(int) },
	}
	in := []Pair{KV("a", 1), KV("b", 1), KV("a", 2)}
	got := MapSidePrepare(spec, in)
	if len(got) != 2 {
		t.Fatalf("combine kept %d records, want 2", len(got))
	}
	if got[0].Key != "a" || got[0].Value.(int) != 3 {
		t.Fatalf("combined = %v", got)
	}
	// Without the flag, records pass through untouched.
	spec.MapSideCombine = false
	if got := MapSidePrepare(spec, in); len(got) != 3 {
		t.Fatalf("no-combine altered records: %v", got)
	}
}

func TestSampleKeysStride(t *testing.T) {
	var recs []Pair
	for i := 0; i < 100; i++ {
		recs = append(recs, KV(fmt.Sprintf("%03d", i), nil))
	}
	got := SampleKeys(recs, 10)
	if len(got) == 0 || len(got) > 100 {
		t.Fatalf("SampleKeys returned %d keys", len(got))
	}
	if got2 := SampleKeys(recs, 10); len(got) != len(got2) || got[0] != got2[0] {
		t.Fatal("SampleKeys nondeterministic")
	}
	if got := SampleKeys(nil, 5); got != nil {
		t.Fatalf("SampleKeys(nil) = %v", got)
	}
}

func TestPrepareRange(t *testing.T) {
	// A hash partitioner is always ready: it is left alone.
	hash := NewHashPartitioner(2)
	PrepareRange(&ShuffleSpec{Partitioner: hash}, [][]string{{"k"}})
	if !hash.Ready() {
		t.Fatal("hash partitioner not ready")
	}
	// An already-Ready partitioner keeps its boundaries.
	ready := NewRangePartitioner(2)
	ready.Prepare([]string{"a", "m", "z"})
	PrepareRange(&ShuffleSpec{Partitioner: ready}, [][]string{{"a"}, {"b"}, {"c"}})
	if got := ready.PartitionFor("b"); got != 0 {
		t.Fatalf("ready partitioner re-prepared: b -> shard %d", got)
	}

	// The boundaries come from every map output's sample, in map order.
	fresh := NewRangePartitioner(2)
	PrepareRange(&ShuffleSpec{Partitioner: fresh}, [][]string{{"k0"}, nil, {"k1", "k2"}})
	want := NewRangePartitioner(2)
	want.Prepare([]string{"k0", "k1", "k2"})
	if !fresh.Ready() {
		t.Fatal("range partitioner not prepared")
	}
	for _, k := range []string{"a", "k0", "k1", "k2", "z"} {
		if got, w := fresh.PartitionFor(k), want.PartitionFor(k); got != w {
			t.Fatalf("%q -> shard %d, the concatenated sample puts it in %d", k, got, w)
		}
	}
}

func TestEvalLocalMemoizesSharedLineage(t *testing.T) {
	g := NewGraph()
	calls := 0
	in := inputFrom(g, pairs("a", "1"))
	shared := in.Map("counted", func(p Pair) Pair {
		calls++
		return p
	})
	left := shared.Map("l", func(p Pair) Pair { return p })
	right := shared.Map("r", func(p Pair) Pair { return p })
	_ = EvalLocal(left.Join("j", right, 2))
	if calls != 1 {
		t.Fatalf("shared parent computed %d times, want 1 (memoized)", calls)
	}
}
