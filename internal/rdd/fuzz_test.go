package rdd

import (
	"bytes"
	"errors"
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
// records or an ErrCorrupt error, never panic, and never allocate more than
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
		// A record is 32 bytes of Pair for at least 2 of input and a nested
		// value at most 24 bytes of box per byte; 64x leaves room for both
		// plus the error and the runtime's own bookkeeping.
		if limit := uint64(64*len(data) + 16<<10); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), allocated, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		again, err := AppendPairs(nil, recs)
		if err != nil {
			t.Fatalf("decoded records do not encode: %v", err)
		}
		if got := EncodedSize(recs); got != float64(len(again)) {
			t.Fatalf("EncodedSize %v, encoded %d bytes", got, len(again))
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
	})
}
