package rdd

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// keyEntry stands in for one record while its partition is sorted: the
// first eight key bytes as a big-endian integer (shorter keys zero-padded)
// and the record's position in the input. It holds no pointers, so moving
// entries costs no write barriers and the collector never scans them;
// the 32-byte Pairs move exactly once, in the final permutation.
type keyEntry struct {
	prefix uint64
	idx    int
}

// radixSortCutoff is the input length below which building entries and
// 256-bucket counting passes cost more than sorting the Pairs directly
// (measured by BenchmarkSortByKey on pagerank-sized partitions).
const radixSortCutoff = 48

// entryScratch recycles entry buffers (two per sort: the radix passes
// ping-pong between halves), so a warm sort allocates nothing itself.
var entryScratch = sync.Pool{New: func() any { return new([]keyEntry) }}

func keyPrefix(k string) uint64 {
	var p uint64
	for i := 0; i < len(k) && i < 8; i++ {
		p |= uint64(k[i]) << (56 - 8*i)
	}
	return p
}

// sortByKey writes src's records to dst in byte-wise key order, records
// with equal keys keeping their input order. dst has src's length and is
// either src itself (sorted in place) or shares no memory with it (src is
// only read).
//
// Small inputs are sorted as Pairs. Larger ones are sorted as keyEntries:
// an LSD byte-radix sort on the prefix, skipping byte positions on which
// every key agrees, then a full-key sort of each run of equal prefixes
// (prefixes that differ order their keys; equal ones say nothing, "a" and
// "a\x00" included), then one permutation of the Pairs.
func sortByKey(dst, src []Pair) {
	n := len(src)
	inPlace := n > 0 && &dst[0] == &src[0]
	if n < radixSortCutoff {
		if !inPlace {
			copy(dst, src)
		}
		slices.SortStableFunc(dst, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
		return
	}

	scratch := entryScratch.Get().(*[]keyEntry)
	defer entryScratch.Put(scratch)
	*scratch = slices.Grow((*scratch)[:0], 2*n)
	ents, spare := (*scratch)[:n], (*scratch)[n:2*n]
	or, and := uint64(0), ^uint64(0)
	for i := range src {
		p := keyPrefix(src[i].Key)
		ents[i] = keyEntry{p, i}
		or |= p
		and &= p
	}
	for shift, varies := 0, or^and; shift < 64; shift += 8 {
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
	// The radix passes are stable, so each run of equal prefixes is still
	// in input order; ordering a run by (key, input position) is the stable
	// order, and lets the faster unstable sort produce it.
	byKeyThenInput := func(a, b keyEntry) int {
		if c := strings.Compare(src[a.idx].Key, src[b.idx].Key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ents[hi].prefix == ents[lo].prefix {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ents[lo:hi], byKeyThenInput)
		}
		lo = hi
	}

	if !inPlace {
		for i, e := range ents {
			dst[i] = src[e.idx]
		}
		return
	}
	// In place: follow each cycle of the permutation, marking an entry
	// done by pointing it at itself.
	for i := range ents {
		if ents[i].idx == i {
			continue
		}
		first := dst[i]
		j := i
		for {
			k := ents[j].idx
			ents[j].idx = j
			if k == i {
				dst[j] = first
				break
			}
			dst[j] = dst[k]
			j = k
		}
	}
}
