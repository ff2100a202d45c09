package rdd

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// keyEntry stands in for one record while its partition is sorted: eight
// key bytes as a big-endian integer (keyPrefix; shorter keys zero-padded),
// the first eight or the eight after bytes that every key it is sorted
// against shares, and the record's position in the input — its run and its offset in that
// run, which in that order are its input order. It holds no pointers, so
// moving entries costs no write barriers and the collector never scans them;
// the 32-byte Pairs move exactly once, in the final permutation.
type keyEntry struct {
	prefix   uint64
	run, off int32 // a partition holds far fewer than 2³¹ records
}

// radixSortCutoff is the input length below which building entries and
// 256-bucket counting passes cost more than sorting the Pairs directly
// (measured by BenchmarkSortByKey on pagerank-sized partitions).
const radixSortCutoff = 48

// entryScratch recycles entry buffers (two per sort: the radix passes
// ping-pong between halves), so a warm sort allocates nothing itself.
var entryScratch = sync.Pool{New: func() any { return new([]keyEntry) }}

func keyPrefix(k string) uint64 {
	if len(k) >= 8 { // one 8-byte load
		return uint64(k[0])<<56 | uint64(k[1])<<48 | uint64(k[2])<<40 | uint64(k[3])<<32 |
			uint64(k[4])<<24 | uint64(k[5])<<16 | uint64(k[6])<<8 | uint64(k[7])
	}
	var p uint64
	for i := 0; i < len(k); i++ {
		p |= uint64(k[i]) << (56 - 8*i)
	}
	return p
}

// sortByKey writes the records of runs, read in order as one input, to dst
// in byte-wise key order, records with equal keys keeping their input order.
// dst has the runs' total length and shares no memory with any run: the runs
// are only read, and the permutation out of them is the sort's one copy.
//
// Small inputs are sorted as Pairs. Larger ones are sorted as keyEntries:
// an LSD byte-radix sort on the prefix (radixPasses), then each stretch of
// equal prefixes ordered on the bytes where its keys differ (sortStretches),
// then one permutation of the Pairs.
//
// The prefix is first taken from each key's start. When every key shares
// its leading bytes there (lexeme%04d, page%06d, classNN\x00termNNN) and
// some key goes on past the eighth byte, the shared bytes tell nothing
// apart, so the prefix is taken again after them (rekeyAfter): one more
// pass over the keys. Keys whose first byte varies (digits) make none.
func sortByKey(dst []Pair, runs ...[]Pair) {
	n := len(dst)
	if n < radixSortCutoff {
		at := 0
		for _, run := range runs {
			at += copy(dst[at:], run)
		}
		slices.SortStableFunc(dst, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
		return
	}

	scratch := entryScratch.Get().(*[]keyEntry)
	defer entryScratch.Put(scratch)
	*scratch = slices.Grow((*scratch)[:0], 2*n)
	ents, spare := (*scratch)[:0], (*scratch)[n:2*n]
	or, and, longest := uint64(0), ^uint64(0), 0
	for r, run := range runs {
		for o := range run {
			k := run[o].Key
			p := keyPrefix(k)
			ents = append(ents, keyEntry{p, int32(r), int32(o)})
			or |= p
			and &= p
			longest = max(longest, len(k))
		}
	}
	varies, depth := or^and, 0
	if shared := bits.LeadingZeros64(varies) / 8; shared > 0 && shared < 8 && longest > 8 {
		depth, varies = shared, rekeyAfter(runs, ents, shared)
	}
	ents, spare = radixPasses(ents, spare, varies)
	sortStretches(runs, ents, spare, depth)

	for i, e := range ents {
		dst[i] = runs[e.run][e.off]
	}
}

// rekeyAfter sets each entry's prefix, ents being in input order, to the
// eight key bytes after the first depth (zero-padded, and zero for a key no
// longer than depth), and returns the byte positions on which they vary.
func rekeyAfter(runs [][]Pair, ents []keyEntry, depth int) uint64 {
	or, and := uint64(0), ^uint64(0)
	i := 0
	for _, run := range runs {
		for o := range run {
			k := run[o].Key
			p := keyPrefix(k[min(depth, len(k)):])
			ents[i].prefix = p
			or |= p
			and &= p
			i++
		}
	}
	return or ^ and
}

// radixPasses sorts ents by prefix: one stable counting pass per byte
// position set in varies (the positions on which some prefixes differ),
// ping-ponging between ents and spare, which has the same length. It returns
// the half holding the result, then the other.
func radixPasses(ents, spare []keyEntry, varies uint64) ([]keyEntry, []keyEntry) {
	for shift := 0; shift < 64; shift += 8 {
		if varies>>shift&0xff == 0 {
			continue
		}
		var count [256]int
		for i := range ents {
			count[ents[i].prefix>>shift&0xff]++
		}
		pos := 0
		for b, c := range count {
			count[b], pos = pos, pos+c
		}
		for _, e := range ents {
			b := e.prefix >> shift & 0xff
			spare[count[b]] = e
			count[b]++
		}
		ents, spare = spare, ents
	}
	return ents, spare
}

// sortStretches orders each stretch of equal prefixes in ents, which is
// sorted by prefix and whose keys, zero-padded, all share their first depth
// bytes, the prefixes being taken from there on. spare is scratch of ents'
// length.
//
// Equal prefixes say nothing ("a" and "a\x00" pad alike), but the radix
// passes are stable, so each stretch is still in input order. A stretch of
// one key is therefore already in the stable order. A short mixed one is
// sorted by (key, input position), which is that order too and lets the
// faster unstable sort produce it. A long mixed one is re-keyed on the
// bytes after the ones all its keys share, radix-sorted again and recursed
// into; when the stretch shares no more bytes than depth (a key ends there
// or before it, and the others continue with NULs), it too goes to the
// comparison sort.
func sortStretches(runs [][]Pair, ents, spare []keyEntry, depth int) {
	for lo := 0; lo < len(ents); {
		hi := lo + 1
		for hi < len(ents) && ents[hi].prefix == ents[lo].prefix {
			hi++
		}
		if hi-lo > 1 {
			sortStretch(runs, ents[lo:hi], spare[lo:hi], depth)
		}
		lo = hi
	}
}

func sortStretch(runs [][]Pair, ents, spare []keyEntry, depth int) {
	first := runs[ents[0].run][ents[0].off].Key
	// lcp is the length of the prefix every key shares. Equal prefixes
	// vouch for the bytes up to depth+8 that both keys have.
	lcp, oneKey := len(first), true
	for _, e := range ents[1:] {
		k := runs[e.run][e.off].Key
		if k == first {
			continue
		}
		oneKey = false
		i := min(lcp, len(k), depth+8)
		for i < lcp && i < len(k) && k[i] == first[i] {
			i++
		}
		lcp = i
	}
	if oneKey {
		return
	}
	if len(ents) < radixSortCutoff || lcp <= depth {
		slices.SortFunc(ents, func(a, b keyEntry) int {
			if c := strings.Compare(runs[a.run][a.off].Key, runs[b.run][b.off].Key); c != 0 {
				return c
			}
			if c := cmp.Compare(a.run, b.run); c != 0 {
				return c
			}
			return cmp.Compare(a.off, b.off)
		})
		return
	}
	or, and := uint64(0), ^uint64(0)
	for i := range ents {
		p := keyPrefix(runs[ents[i].run][ents[i].off].Key[lcp:])
		ents[i].prefix = p
		or |= p
		and &= p
	}
	sorted, other := radixPasses(ents, spare, or^and)
	sortStretches(runs, sorted, other, lcp)
	if &sorted[0] != &ents[0] {
		copy(ents, sorted)
	}
}
