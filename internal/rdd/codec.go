package rdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// The record codec: the one binary encoding records take whenever they
// leave a process — a chunk frame on the live cluster's wire, a block
// store's spill file. A payload is a uvarint record count followed by the
// records, each a length-prefixed key and one tagged value:
//
//	payload := uvarint(n) record*n
//	record  := uvarint(len) key value
//	value   := tag body        (bodies below)
//
// Lengths and counts are uvarints, ints are zigzag varints, float64s are
// eight little-endian bytes. The value set is closed: AppendPairs rejects
// anything else with an *UnsupportedValueError before it writes a byte.

const (
	tagNil     byte = iota // no body
	tagString              // uvarint(len) bytes
	tagInt                 // varint
	tagFloat64             // 8 bytes
	tagFalse               // no body
	tagTrue                // no body
	tagBytes               // uvarint(len) bytes
	tagValues              // []Value: uvarint(n) value*n
	tagStrings             // []string: uvarint(n) (uvarint(len) bytes)*n
	tagFloats              // []float64: uvarint(n) (8 bytes)*n
	tagTagged              // Tagged: varint(Side) value
	tagGroups              // [2][]Value: (uvarint(n) value*n)*2
)

// maxValueDepth bounds how deep values nest ([]Value in []Value, Tagged in
// Tagged …), so decoding hostile bytes cannot exhaust the stack. The
// encoder enforces the same bound: what it accepts, the decoder accepts.
const maxValueDepth = 32

// UnsupportedValueError reports a record value the codec cannot carry:
// a Go type outside the closed set, or values nested deeper than
// maxValueDepth.
type UnsupportedValueError struct {
	// Key is the key of the offending record.
	Key string
	// Type is the Go type of the (possibly nested) value.
	Type string
}

func (e *UnsupportedValueError) Error() string {
	return fmt.Sprintf("rdd: record %q: the record codec cannot carry a value of type %s", e.Key, e.Type)
}

// ErrCorrupt is wrapped by every DecodePairs error.
var ErrCorrupt = errors.New("rdd: corrupt record payload")

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// valueLen is the encoded length of v, or -1 with the offending type's
// name when v (or something nested in it) is outside the value set.
func valueLen(v Value, depth int) (int, string) {
	if depth > maxValueDepth {
		return -1, fmt.Sprintf("%T nested deeper than %d", v, maxValueDepth)
	}
	switch x := v.(type) {
	case nil, bool:
		return 1, ""
	case string:
		return 1 + stringLen(x), ""
	case int:
		return 1 + varintLen(int64(x)), ""
	case float64:
		return 9, ""
	case []byte:
		return 1 + uvarintLen(uint64(len(x))) + len(x), ""
	case []Value:
		n, bad := valuesLen(x, depth)
		return 1 + n, bad
	case []string:
		n := 1 + uvarintLen(uint64(len(x)))
		for _, s := range x {
			n += stringLen(s)
		}
		return n, ""
	case []float64:
		return 1 + uvarintLen(uint64(len(x))) + 8*len(x), ""
	case Tagged:
		n, bad := valueLen(x.V, depth+1)
		return 1 + varintLen(int64(x.Side)) + n, bad
	case [2][]Value:
		a, bad := valuesLen(x[0], depth)
		if bad != "" {
			return -1, bad
		}
		b, bad := valuesLen(x[1], depth)
		return 1 + a + b, bad
	default:
		return -1, fmt.Sprintf("%T", v)
	}
}

func valuesLen(vs []Value, depth int) (int, string) {
	n := uvarintLen(uint64(len(vs)))
	for _, e := range vs {
		m, bad := valueLen(e, depth+1)
		if bad != "" {
			return -1, bad
		}
		n += m
	}
	return n, ""
}

// EncodedSize is the exact number of bytes AppendPairs adds for recs. It
// does not allocate. A value AppendPairs would reject counts as its tag
// byte alone, so sizing records that never leave the process (leaf inputs
// of any type) cannot fail.
func EncodedSize(recs []Pair) float64 {
	n := uvarintLen(uint64(len(recs)))
	for i := range recs {
		m, bad := valueLen(recs[i].Value, 0)
		if bad != "" {
			m = 1
		}
		n += stringLen(recs[i].Key) + m
	}
	return float64(n)
}

// AppendPairs appends the encoding of recs to dst and returns the extended
// slice. Every value is checked first: on an *UnsupportedValueError dst is
// returned as it came.
func AppendPairs(dst []byte, recs []Pair) ([]byte, error) {
	n := uvarintLen(uint64(len(recs)))
	for i := range recs {
		m, bad := valueLen(recs[i].Value, 0)
		if bad != "" {
			return dst, &UnsupportedValueError{Key: recs[i].Key, Type: bad}
		}
		n += stringLen(recs[i].Key) + m
	}
	dst = slices.Grow(dst, n)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		dst = appendString(dst, recs[i].Key)
		dst = appendValue(dst, recs[i].Value)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendValue encodes a value valueLen has accepted.
func appendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil)
	case string:
		return appendString(append(dst, tagString), x)
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(x))
	case float64:
		return appendFloat64(append(dst, tagFloat64), x)
	case bool:
		if x {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case []byte:
		dst = binary.AppendUvarint(append(dst, tagBytes), uint64(len(x)))
		return append(dst, x...)
	case []Value:
		return appendValues(append(dst, tagValues), x)
	case []string:
		dst = binary.AppendUvarint(append(dst, tagStrings), uint64(len(x)))
		for _, s := range x {
			dst = appendString(dst, s)
		}
		return dst
	case []float64:
		dst = binary.AppendUvarint(append(dst, tagFloats), uint64(len(x)))
		for _, f := range x {
			dst = appendFloat64(dst, f)
		}
		return dst
	case Tagged:
		dst = binary.AppendVarint(append(dst, tagTagged), int64(x.Side))
		return appendValue(dst, x.V)
	case [2][]Value:
		return appendValues(appendValues(append(dst, tagGroups), x[0]), x[1])
	}
	panic(fmt.Sprintf("rdd: appendValue reached unchecked type %T", v))
}

func appendValues(dst []byte, vs []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, e := range vs {
		dst = appendValue(dst, e)
	}
	return dst
}

// DecodePairs decodes one AppendPairs payload. It takes ownership of buf:
// every key and string is cut out of buf as a substring, not copied, and a
// []byte value is a sub-slice of it, so the caller must neither write to
// nor reuse buf afterwards — and a decoded Pair keeps the whole of buf
// alive (holders that outlive their chunk strings.Clone what they keep).
// Arbitrary bytes yield an error wrapping ErrCorrupt, never a panic, and
// every count is checked against the bytes left (and all counts together
// against len(buf)) before anything is allocated for it.
func DecodePairs(buf []byte) ([]Pair, error) {
	d := decoder{buf: buf, arena: unsafe.String(unsafe.SliceData(buf), len(buf))}
	n := d.count(2) // a record is at least a key length and a tag
	recs := make([]Pair, n)
	for i := range recs {
		recs[i].Key = d.str()
		recs[i].Value = d.value(0)
		if d.err != nil {
			break
		}
	}
	if d.err == nil && d.off != len(buf) {
		d.fail("%d trailing bytes", len(buf)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return recs, nil
}

// decoder walks one payload. The first failure sticks in err and every
// later read returns a zero value, so call sites check once.
type decoder struct {
	buf   []byte
	arena string // the same bytes as buf, for substrings
	off   int
	elems int // slice elements claimed so far, see count
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: at byte %d: %s", ErrCorrupt, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 { // one byte: most lengths and counts
		d.off++
		return uint64(d.buf[d.off-1])
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) varint() int {
	u := d.uvarint()
	x := int64(u>>1) ^ -int64(u&1)
	if int64(int(x)) != x {
		d.fail("integer %d overflows int", x)
		return 0
	}
	return int(x)
}

// length reads a byte or element count and rejects one the remaining
// bytes cannot hold at minBytes apiece.
func (d *decoder) length(minBytes int) int {
	x := d.uvarint()
	if x > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.fail("count %d exceeds the %d bytes left", x, len(d.buf)-d.off)
		return 0
	}
	return int(x)
}

// count reads the element count of a slice about to be allocated. Beyond
// length's check it keeps a running total: every element of every slice,
// at any depth, owns at least one byte of the payload (its tag or length)
// that no other element owns, so all counts together cannot exceed
// len(buf). Without the total, slices nested in slices could each claim
// the same remaining bytes and allocate depth times over.
func (d *decoder) count(minBytes int) int {
	n := d.length(minBytes)
	if d.elems += n; d.elems > len(d.buf) {
		d.fail("%d elements claimed of a %d-byte payload", d.elems, len(d.buf))
		return 0
	}
	return n
}

// span consumes a length-prefixed run of bytes and returns its bounds.
func (d *decoder) span() (lo, hi int) {
	n := d.length(1)
	lo = d.off
	d.off += n
	return lo, d.off
}

func (d *decoder) str() string {
	lo, hi := d.span()
	return d.arena[lo:hi]
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.off < 8 {
		d.fail("truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return f
}

func (d *decoder) values(depth int) []Value {
	vs := make([]Value, d.count(1))
	for i := range vs {
		vs[i] = d.value(depth + 1)
	}
	return vs
}

func (d *decoder) value(depth int) Value {
	if d.err != nil {
		return nil
	}
	if depth > maxValueDepth {
		d.fail("values nested deeper than %d", maxValueDepth)
		return nil
	}
	if d.off >= len(d.buf) {
		d.fail("truncated value")
		return nil
	}
	tag := d.buf[d.off]
	d.off++
	switch tag {
	case tagNil:
		return nil
	case tagString:
		return d.str()
	case tagInt:
		return d.varint()
	case tagFloat64:
		return d.f64()
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagBytes:
		lo, hi := d.span()
		return d.buf[lo:hi:hi]
	case tagValues:
		return d.values(depth)
	case tagStrings:
		ss := make([]string, d.count(1))
		for i := range ss {
			ss[i] = d.str()
		}
		return ss
	case tagFloats:
		fs := make([]float64, d.count(8))
		for i := range fs {
			fs[i] = d.f64()
		}
		return fs
	case tagTagged:
		side := d.varint()
		return Tagged{Side: side, V: d.value(depth + 1)}
	case tagGroups:
		return [2][]Value{d.values(depth), d.values(depth)}
	default:
		d.fail("unknown tag %d", tag)
		return nil
	}
}
