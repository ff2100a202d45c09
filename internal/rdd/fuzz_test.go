package rdd

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// Fuzz targets run their seed corpus under `go test` and can be extended
// with `go test -fuzz=Fuzz<Name> ./internal/rdd`.

func FuzzHashPartitionerInRange(f *testing.F) {
	f.Add("", 1)
	f.Add("hello", 8)
	f.Add("ключ", 3)
	f.Add(strings.Repeat("x", 1000), 64)
	f.Fuzz(func(t *testing.T, key string, nRaw int) {
		n := nRaw%128 + 1
		if n <= 0 {
			n += 128
		}
		p := NewHashPartitioner(n)
		got := p.PartitionFor(key)
		if got < 0 || got >= n {
			t.Fatalf("PartitionFor(%q) = %d out of [0,%d)", key, got, n)
		}
		if p.PartitionFor(key) != got {
			t.Fatalf("PartitionFor(%q) not deterministic", key)
		}
	})
}

func FuzzRangePartitionerOrder(f *testing.F) {
	f.Add("a\nb\nc", 3)
	f.Add("z\na\nmm\nq", 2)
	f.Fuzz(func(t *testing.T, raw string, nRaw int) {
		n := nRaw%16 + 1
		if n <= 0 {
			n += 16
		}
		keys := strings.Split(raw, "\n")
		p := NewRangePartitioner(n)
		p.Prepare(keys)
		// Order preservation: for any two keys, shard order must follow
		// key order.
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := keys[i], keys[j]
				sa, sb := p.PartitionFor(a), p.PartitionFor(b)
				if a < b && sa > sb {
					t.Fatalf("keys %q<%q but shards %d>%d", a, b, sa, sb)
				}
				if a > b && sa < sb {
					t.Fatalf("keys %q>%q but shards %d<%d", a, b, sa, sb)
				}
			}
		}
	})
}

// FuzzRangePrepare holds the boundaries Prepare selects to the ones a full
// sort of the sample cuts: key i·m/n of the m sorted keys, for each of the
// n-1 cuts. The sample is raw's lines, each repeated copies times so that
// duplicates run long (none when raw is empty), then drawn seeded decimal
// keys over drawn/4+1 values, so an empty raw and no draws is an empty
// sample. Prepare must also leave the sample as it was.
func FuzzRangePrepare(f *testing.F) {
	f.Add("", uint8(4), uint8(1), int64(1), uint16(0))                             // an empty sample
	f.Add("b\na\nc", uint8(8), uint8(1), int64(1), uint16(0))                      // fewer keys than partitions
	f.Add("k\nk\nk\nj\nk", uint8(3), uint8(9), int64(1), uint16(0))                // duplicates
	f.Add("\n\x00\na\x00\n\na\n\x00\x00", uint8(5), uint8(4), int64(1), uint16(0)) // empty and NUL keys
	f.Add("", uint8(8), uint8(0), int64(2), uint16(3000))
	f.Add("\x00\n", uint8(24), uint8(2), int64(3), uint16(999))
	f.Add("", uint8(63), uint8(0), int64(4), uint16(40))
	f.Fuzz(func(t *testing.T, raw string, nRaw, copies uint8, seed int64, drawn uint16) {
		n := int(nRaw)%64 + 1
		var sample []string
		if raw != "" {
			lines := strings.Split(raw, "\n")
			for c := 0; c <= int(copies)%8; c++ {
				sample = append(sample, lines...)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for range int(drawn) % 4000 {
			sample = append(sample, strconv.Itoa(rng.Intn(int(drawn)/4+1)))
		}
		orig := slices.Clone(sample)
		sorted := slices.Clone(sample)
		slices.Sort(sorted)
		var want []string
		for i := 1; i < n && len(sorted) > 0; i++ {
			want = append(want, sorted[i*len(sorted)/n])
		}
		p := NewRangePartitioner(n)
		p.Prepare(sample)
		if !slices.Equal(p.boundaries, want) {
			t.Fatalf("n=%d over %d keys: boundaries %q, a full sort cuts %q", n, len(sample), p.boundaries, want)
		}
		if !slices.Equal(sample, orig) {
			t.Fatal("Prepare reordered its sample")
		}
		// A small partition budget sends the selection to its sorting
		// fallback part of the way down.
		if len(sample) > 0 {
			keys, budget := slices.Clone(sample), int(copies)%3
			selectCuts(keys, 0, len(keys), 1, n, n, budget)
			for i, w := range want {
				if got := keys[(i+1)*len(keys)/n]; got != w {
					t.Fatalf("n=%d over %d keys, budget %d: cut %d holds %q, a full sort %q", n, len(keys), budget, i+1, got, w)
				}
			}
		}
	})
}

func FuzzSizeOfNonNegative(f *testing.F) {
	f.Add("key", "value")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, key, val string) {
		if !utf8.ValidString(key) || !utf8.ValidString(val) {
			t.Skip()
		}
		s := SizeOf(KV(key, val))
		if s < float64(len(key)+len(val)) {
			t.Fatalf("SizeOf(%q,%q) = %v smaller than payload", key, val, s)
		}
	})
}

// FuzzDecodePairs feeds the record decoder arbitrary bytes: it must return
// records or an errCorrupt error, never panic, and never allocate more than
// a small multiple of its input — a huge length prefix is checked against
// the bytes left, not handed to make. What decodes must encode back to a
// payload that decodes to the same records. The committed corpus
// (testdata/fuzz/FuzzDecodePairs) holds a payload with every tag, its
// truncations, and oversized length prefixes.
func FuzzDecodePairs(f *testing.F) {
	valid, err := AppendPairs(nil, everyTag())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodePairs owns its argument; the fuzzer owns data.
		buf := append([]byte(nil), data...)
		var recs []Pair
		var err error
		allocated := allocatedBytes(func() { recs, err = DecodePairs(buf) })
		// A record is 32 bytes of Pair for at least 2 bytes of input, and a
		// nested value 16 bytes of []Value slot for at least 1. A string,
		// int or float64 value of at least 2 bytes sits in its kind's slab,
		// where a refill at most doubles the slots used before it: at most
		// three 16-byte slots per value, 24 bytes per byte. 64x leaves room
		// for all of them plus the error and the runtime's own bookkeeping.
		if limit := decodeLimit(len(data)); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), allocated, limit)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		again, err := AppendPairs(nil, recs)
		if err != nil {
			t.Fatalf("decoded records do not encode: %v", err)
		}
		if got, err := EncodedSize(recs); err != nil || got != float64(len(again)) {
			t.Fatalf("EncodedSize %v (%v), encoded %d bytes", got, err, len(again))
		}
		// again is canonical (minimal varints, no trailing bytes), so a
		// faithful round trip reproduces it byte for byte.
		back, err := DecodePairs(bytes.Clone(again))
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if twice, err := AppendPairs(nil, back); err != nil || !bytes.Equal(twice, again) {
			t.Fatalf("re-encoded payload decodes to different records (%v)", err)
		}
		// A decoded value points into its payload's slabs: after a
		// collection each must still be the value it decoded as.
		runtime.GC()
		for i := range recs {
			got, ok := floatBits(recs[i].Value)
			want, _ := floatBits(back[i].Value)
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("record %d decodes as %#v after a collection, want %#v", i, recs[i].Value, back[i].Value)
			}
		}
	})
}

// floatBits rebuilds v with every float64 replaced by its bits, since NaN
// defeats reflect.DeepEqual, reading every value it holds on the way. ok
// is false when v holds a type outside the codec's value set.
func floatBits(v Value) (_ Value, ok bool) {
	switch x := v.(type) {
	case nil, string, int, bool, []byte, []string:
		return x, true
	case float64:
		return math.Float64bits(x), true
	case []float64:
		bits := make([]uint64, len(x))
		for i, f := range x {
			bits[i] = math.Float64bits(f)
		}
		return bits, true
	case []Value:
		return valuesBits(x)
	case [2][]Value:
		a, okA := valuesBits(x[0])
		b, okB := valuesBits(x[1])
		return [2]Value{a, b}, okA && okB
	}
	return nil, false
}

func valuesBits(vs []Value) (Value, bool) {
	out := make([]Value, len(vs))
	for i, e := range vs {
		var ok bool
		if out[i], ok = floatBits(e); !ok {
			return nil, false
		}
	}
	return out, true
}
