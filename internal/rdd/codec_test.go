package rdd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"wanshuffle/internal/topology"
)

// randValue draws from the codec's whole value set: the scalars, the
// RandomLineage universe (small ints, []Value groups of them), nested
// []Value / [2][]Value, empty and nil slices, and now and then a
// string of 64 KiB or more.
func randValue(rng *rand.Rand, depth int) Value {
	kinds := 10
	if depth >= 3 {
		kinds = 8 // scalars and flat slices only
	}
	switch rng.Intn(kinds) {
	case 0:
		return nil
	case 1:
		if rng.Intn(50) == 0 {
			return strings.Repeat("long-", (64<<10)/5+rng.Intn(100))
		}
		return strings.Repeat("v", rng.Intn(40))
	case 2:
		return []int{0, 1, -1, rng.Intn(100), -rng.Intn(1 << 20), math.MaxInt, math.MinInt}[rng.Intn(7)]
	case 3:
		return []float64{0, -0.5, rng.NormFloat64(), math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(6)]
	case 4:
		return rng.Intn(2) == 0
	case 5:
		return [][]byte{nil, {}, {0}, []byte("bytes\x00\xff")}[rng.Intn(4)]
	case 6:
		return [][]string{nil, {}, {""}, {"a", "", "ccc"}}[rng.Intn(4)]
	case 7:
		return [][]float64{nil, {}, {1.5}, {0, -1, math.Pi}}[rng.Intn(4)]
	case 8:
		return randValues(rng, depth)
	default:
		return [2][]Value{randValues(rng, depth), randValues(rng, depth)}
	}
}

func randValues(rng *rand.Rand, depth int) []Value {
	switch n := rng.Intn(5); n {
	case 0:
		return nil
	case 1:
		return []Value{}
	default:
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = randValue(rng, depth+1)
		}
		return vs
	}
}

func randPairs(rng *rand.Rand, n int) []Pair {
	recs := make([]Pair, n)
	for i := range recs {
		key := ""
		if rng.Intn(8) > 0 {
			key = fmt.Sprintf("k%02d", rng.Intn(12))
		}
		recs[i] = KV(key, randValue(rng, 0))
	}
	return recs
}

// emptied maps every nil slice in v to an empty one: the codec does not
// tell them apart, and neither does the %v rendering the sim≡live parity
// tests compare backends by. Everything else — dynamic types, int against
// float64, order — must survive exactly, so the round-trip tests compare
// with reflect.DeepEqual after this, which is stricter than comparing the
// rendering.
func emptied(v Value) Value {
	each := func(vs []Value) []Value {
		out := make([]Value, len(vs))
		for i, e := range vs {
			out[i] = emptied(e)
		}
		return out
	}
	switch x := v.(type) {
	case []byte:
		return append([]byte{}, x...)
	case []string:
		return append([]string{}, x...)
	case []float64:
		return append([]float64{}, x...)
	case []Value:
		return each(x)
	case [2][]Value:
		return [2][]Value{each(x[0]), each(x[1])}
	}
	return v
}

func emptiedPairs(recs []Pair) []Pair {
	out := make([]Pair, len(recs))
	for i, p := range recs {
		out[i] = KV(p.Key, emptied(p.Value))
	}
	return out
}

func TestCodecRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randPairs(rng, rng.Intn(40))
		prefix := []byte("already here")
		buf, err := AppendPairs(append([]byte(nil), prefix...), in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(buf[:len(prefix)]) != string(prefix) {
			t.Fatalf("seed %d: AppendPairs clobbered dst", seed)
		}
		payload := buf[len(prefix):]
		if got, err := EncodedSize(in); err != nil || got != float64(len(payload)) {
			t.Fatalf("seed %d: EncodedSize %v (%v), encoded %d bytes", seed, got, err, len(payload))
		}
		out, err := DecodePairs(payload)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(emptiedPairs(out), emptiedPairs(in)) {
			t.Fatalf("seed %d: round trip diverges\n in  %v\n out %v", seed, in, out)
		}
		if fmt.Sprint(out) != fmt.Sprint(in) {
			t.Fatalf("seed %d: round trip renders differently", seed)
		}
	}
}

// TestCodecCarriesRandomLineageRecords round-trips what RandomLineage jobs
// actually ship: their leaf records and their reference output.
func TestCodecCarriesRandomLineageRecords(t *testing.T) {
	hosts := []topology.HostID{0, 1, 2}
	for seed := int64(0); seed < 25; seed++ {
		target := RandomLineage(seed, NewGraph(), hosts)
		sets := [][]Pair{CollectLocal(target)}
		for _, r := range target.Graph().RDDs() {
			for _, p := range r.Input {
				sets = append(sets, p.Records)
			}
		}
		for _, in := range sets {
			buf, err := AppendPairs(nil, in)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			out, err := DecodePairs(buf)
			if err != nil || !reflect.DeepEqual(out, append([]Pair{}, in...)) {
				t.Fatalf("seed %d: round trip diverges (%v)", seed, err)
			}
		}
	}
}

// codecKinds is the record value set as one list: a record of every kind
// the codec carries, one per value tag (TestCodecRoundTripsEveryKind holds
// that), with what SizeOf gives it (TestSizeOfCoversTypes). A value of any
// other type is refused by both (TestValuesOutsideTheCodecAreRefused).
var codecKinds = []struct {
	rec  Pair
	size float64
}{
	{KV("nil", nil), 3 + 16},
	{KV("string", "s"), 6 + 1 + 16},
	{KV("int", -300), 3 + 8 + 16},
	{KV("float64", 2.5), 7 + 8 + 16},
	{KV("false", false), 5 + 1 + 16},
	{KV("true", true), 4 + 1 + 16},
	{KV("bytes", []byte{1, 2}), 5 + 2 + 16},
	{KV("values", []Value{1, "x", nil}), 6 + (24 + 8 + 1) + 16},
	{KV("strings", []string{"a", "bc"}), 7 + (24 + 9 + 10) + 16},
	{KV("floats", []float64{1, 2}), 6 + (24 + 16) + 16},
	{KV("groups", [2][]Value{{1}, {"r", 2.5}}), 6 + (24 + 8) + (24 + 1 + 8) + 16},
	{KV("", ""), 16},
}

// everyTag is codecKinds' records, the smallest payload covering the whole
// format.
func everyTag() []Pair {
	recs := make([]Pair, len(codecKinds))
	for i, k := range codecKinds {
		recs[i] = k.rec
	}
	return recs
}

// TestCodecRoundTripsEveryKind: every codecKinds record survives the codec
// exactly, and the list holds a record of every value tag the format has.
func TestCodecRoundTripsEveryKind(t *testing.T) {
	tags := map[byte]bool{}
	for _, k := range codecKinds {
		buf, err := AppendPairs(nil, []Pair{k.rec})
		if err != nil {
			t.Fatalf("%q: %v", k.rec.Key, err)
		}
		tags[buf[2+len(k.rec.Key)]] = true // count, key length, key, tag
		out, err := DecodePairs(buf)
		if err != nil || !reflect.DeepEqual(emptiedPairs(out), emptiedPairs([]Pair{k.rec})) {
			t.Fatalf("%q: round trip gives %v (%v)", k.rec.Key, out, err)
		}
	}
	for tag := tagNil; tag <= tagGroups; tag++ {
		if !tags[tag] && tag != tagGroups-1 { // the one unused tag
			t.Errorf("no codecKinds record encodes with tag %d", tag)
		}
	}
}

// TestValuesOutsideTheCodecAreRefused: a value outside codecKinds' types
// makes SizeOf panic naming its type and EncodedSize return the typed
// error. A []Value nested past the codec's depth bound is the one value
// SizeOf sizes and the codec refuses.
func TestValuesOutsideTheCodecAreRefused(t *testing.T) {
	for _, v := range []Value{int64(1), float32(1), unshippable{}} {
		name := fmt.Sprintf("%T", v)
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name) {
					t.Errorf("SizeOf of a %s: recovered %v, want a panic naming the type", name, r)
				}
			}()
			SizeOf(KV("k", v))
		}()
		var unsupported *UnsupportedValueError
		if _, err := EncodedSize([]Pair{KV("k", v)}); !errors.As(err, &unsupported) || unsupported.valueType != name {
			t.Errorf("EncodedSize of a %s: err = %v, want *UnsupportedValueError naming it", name, err)
		}
	}
	deep := Value("leaf")
	for i := 0; i <= maxValueDepth; i++ {
		deep = []Value{deep}
	}
	if got, want := SizeOf(KV("k", deep)), float64(1+24*(maxValueDepth+1)+4+16); got != want {
		t.Errorf("SizeOf of a too-deep []Value = %v, want %v", got, want)
	}
	if _, err := EncodedSize([]Pair{KV("k", deep)}); err == nil {
		t.Error("EncodedSize accepted a []Value nested past the codec's bound")
	}
}

func TestDecodePairsRejectsEveryProperPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, in := range [][]Pair{everyTag(), randPairs(rng, 30), {}} {
		buf, err := AppendPairs(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(buf); n++ {
			if _, err := DecodePairs(append([]byte(nil), buf[:n]...)); !errors.Is(err, errCorrupt) {
				t.Fatalf("prefix of %d of %d bytes: err = %v, want ErrCorrupt", n, len(buf), err)
			}
		}
		if _, err := DecodePairs(append(buf, 0)); !errors.Is(err, errCorrupt) {
			t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
		}
	}
}

func TestDecodePairsRejectsOversizedCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^56-1
	// Thirty nested []Value, each claiming the same 4000 bytes of padding:
	// every count fits the bytes left, all of them together do not.
	nested := []byte{1, 0}
	for i := 0; i < 30; i++ {
		nested = append(nested, tagValues, 0xa0, 0x1f) // uvarint 4000
	}
	nested = append(nested, make([]byte, 4000)...)
	for name, buf := range map[string][]byte{
		"nested":     nested,
		"records":    huge,
		"key length": append([]byte{1}, huge...),
		"string":     append([]byte{1, 0, tagString}, huge...),
		"values":     append([]byte{1, 0, tagValues}, huge...),
		"strings":    append([]byte{1, 0, tagStrings}, huge...),
		"floats":     append([]byte{1, 0, tagFloats}, huge...),
		"bytes":      append([]byte{1, 0, tagBytes}, huge...),
		"tag":        {1, 0, 0xee},
	} {
		allocated := allocatedBytes(func() {
			if _, err := DecodePairs(buf); !errors.Is(err, errCorrupt) {
				t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
			}
		})
		if limit := uint64(32*len(buf) + 4<<10); allocated > limit {
			t.Errorf("%s: allocated %d bytes rejecting %d, over %d", name, allocated, len(buf), limit)
		}
	}
}

// allocatedBytes is how many heap bytes fn (and anything running beside it)
// allocated, the lesser of two calls: when a stop-the-world ends, the
// runtime now and then starts an OS thread and allocates its bookkeeping
// (about 5.5 KB, runtime.allocm), which is none of fn's. fn must allocate
// the same on every call.
func allocatedBytes(fn func()) uint64 {
	once := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	return min(once(), once())
}

type unshippable struct{}

func TestAppendPairsRejectsUnsupportedValues(t *testing.T) {
	deep := Value("leaf")
	for i := 0; i <= maxValueDepth; i++ {
		deep = []Value{deep}
	}
	for name, tc := range map[string]struct {
		v        Value
		wantType string
	}{
		"struct":        {unshippable{}, "rdd.unshippable"},
		"int64":         {int64(1), "int64"},
		"pair":          {KV("k", 1), "rdd.Pair"},
		"nested":        {[]Value{1, []Value{unshippable{}}}, "rdd.unshippable"},
		"in groups":     {[2][]Value{nil, {float32(1)}}, "float32"},
		"too deep":      {deep, "nested deeper"},
		"pointer":       {&unshippable{}, "*rdd.unshippable"},
		"string slices": {[][]string{{"a"}}, "[][]string"},
	} {
		dst := []byte("kept")
		got, err := AppendPairs(dst, []Pair{KV("fine", 1), KV("bad-key", tc.v)})
		var unsupported *UnsupportedValueError
		if !errors.As(err, &unsupported) {
			t.Fatalf("%s: err = %v, want *UnsupportedValueError", name, err)
		}
		if unsupported.Key != "bad-key" || !strings.Contains(unsupported.valueType, tc.wantType) || !strings.Contains(err.Error(), tc.wantType) {
			t.Fatalf("%s: error %q does not name key and type %q", name, err, tc.wantType)
		}
		if string(got) != "kept" {
			t.Fatalf("%s: dst changed to %q", name, got)
		}
	}
	// The deepest nesting the encoder accepts decodes again.
	ok := Value("leaf")
	for i := 0; i < maxValueDepth; i++ {
		ok = []Value{ok}
	}
	buf, err := AppendPairs(nil, []Pair{KV("k", ok)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePairs(buf); err != nil {
		t.Fatal(err)
	}
	// Sizing reports what AppendPairs would reject, and still sizes it: a
	// rejected value counts as its tag byte.
	got, err := EncodedSize([]Pair{KV("k", unshippable{})})
	if want := float64(1 + 2 + 1); got != want {
		t.Fatalf("EncodedSize of an unsupported value = %v, want %v", got, want)
	}
	var unsupported *UnsupportedValueError
	if !errors.As(err, &unsupported) || unsupported.Key != "k" {
		t.Fatalf("EncodedSize of an unsupported value: err = %v, want *UnsupportedValueError for key %q", err, "k")
	}
}

func TestEncodedSizeDoesNotAllocate(t *testing.T) {
	recs := append(everyTag(), sortShaped(64)...)
	if allocs := testing.AllocsPerRun(10, func() { sizeSink, _ = EncodedSize(recs) }); allocs != 0 {
		t.Fatalf("EncodedSize allocates %v times", allocs)
	}
}

// TestDecodePairsAllocatesPerSlabNotPerRecord pins the zero-copy contract:
// decoding a chunk of string records costs the record slice plus a slab
// refill per doubling of the string values decoded (16, 32, 64, 128, then
// the 16 records left), and no per-key, per-value or per-record copy.
func TestDecodePairsAllocatesPerSlabNotPerRecord(t *testing.T) {
	buf, err := AppendPairs(nil, sortShaped(256))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		// The copy stands in for the receive buffer DecodePairs takes over.
		if pairsSink, err = DecodePairs(append([]byte(nil), buf...)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("decoding 256 records took %v allocations, want at most 8", allocs)
	}
}

// decodeLimit is the most heap DecodePairs may allocate for n bytes of
// payload, valid or not (see FuzzDecodePairs).
func decodeLimit(n int) uint64 { return uint64(64*n + 16<<10) }

// TestDecodeMixedKindsStaysWithinBound decodes a valid payload that cycles
// through every tag, so each kind's slab starts and refills part way
// through it, under the fuzz target's allocation bound.
func TestDecodeMixedKindsStaysWithinBound(t *testing.T) {
	var in []Pair
	for len(in) < 4096 {
		in = append(in, everyTag()...)
	}
	buf, err := AppendPairs(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	allocated := allocatedBytes(func() { pairsSink, err = DecodePairs(buf) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := decodeLimit(len(buf)); allocated > limit {
		t.Fatalf("decoding %d bytes allocated %d, over %d", len(buf), allocated, limit)
	}
}

// TestDecodedValueOutlivesItsPairs keeps one decoded value of each kind
// and drops the records, their payload and so every other slot of the
// slabs the values sit in: the values must read back as written after
// collections that reuse whatever was freed.
func TestDecodedValueOutlivesItsPairs(t *testing.T) {
	in := everyTag()
	buf, err := AppendPairs(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodePairs(buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]Value, len(recs))
	for i := range recs {
		kept[i] = recs[i].Value
	}
	recs, buf = nil, nil
	for gc := 0; gc < 2; gc++ {
		runtime.GC()
		for i := 0; i < 1000; i++ {
			stringsSink = make([]string, 16)
		}
	}
	for i, v := range kept {
		if !reflect.DeepEqual(v, in[i].Value) {
			t.Errorf("kept %s value reads %#v, want %#v", in[i].Key, v, in[i].Value)
		}
	}
}

var (
	sizeSink    float64
	pairsSink   []Pair
	bytesSink   []byte
	stringsSink []string
)

// sortShaped builds records like the sort workloads': a 10-byte key and a
// 52-byte string value.
func sortShaped(n int) []Pair {
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = KV(fmt.Sprintf("%010d", i*7919%1000003), strings.Repeat("x", 42)+fmt.Sprintf("%010d", i))
	}
	return recs
}

// pageRankShaped builds records like a PageRank round's grouped messages:
// a short key and a []Value of a few contributions and a link list.
func pageRankShaped(n int) []Pair {
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = KV(fmt.Sprintf("p%d", i), []Value{0.15 + float64(i), float64(i) / 7, []string{"p1", "p22", "p333"}})
	}
	return recs
}

// countsShaped builds records like a word count's: a word and an int
// count, half of them below 256 and half above.
func countsShaped(n int) []Pair {
	recs := make([]Pair, n)
	for i := range recs {
		count := i % 256
		if i%2 == 1 {
			count = 256 + i*31
		}
		recs[i] = KV(fmt.Sprintf("word%d", i), count)
	}
	return recs
}

// contribsShaped builds records like PageRank's ranks and contributions: a
// short key and a float64.
func contribsShaped(n int) []Pair {
	recs := make([]Pair, n)
	for i := range recs {
		recs[i] = KV(fmt.Sprintf("p%d", i), 0.15+0.85*float64(i)/float64(n))
	}
	return recs
}

var codecShapes = []struct {
	name string
	recs []Pair
}{
	{"sort", sortShaped(256)},
	{"pagerank", pageRankShaped(256)},
	{"counts", countsShaped(256)},
	{"contribs", contribsShaped(256)},
}

func BenchmarkAppendPairs(b *testing.B) {
	for _, shape := range codecShapes {
		b.Run(shape.name, func(b *testing.B) {
			buf, err := AppendPairs(nil, shape.recs)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendPairs(buf[:0], shape.recs)
			}
			bytesSink = buf
		})
	}
}

func BenchmarkDecodePairs(b *testing.B) {
	for _, shape := range codecShapes {
		b.Run(shape.name, func(b *testing.B) {
			buf, err := AppendPairs(nil, shape.recs)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Decoded records are never written to, so decoding the
				// same buffer again is safe here.
				if pairsSink, err = DecodePairs(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
