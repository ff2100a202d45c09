package rdd

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// keyEntry stands in for one record while its partition is sorted: the
// first eight key bytes as a big-endian integer (shorter keys zero-padded)
// and the record's position in the input — its run and its offset in that
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
	var p uint64
	for i := 0; i < len(k) && i < 8; i++ {
		p |= uint64(k[i]) << (56 - 8*i)
	}
	return p
}

// sortByKey writes the records of runs, read in order as one input, to dst
// in byte-wise key order, records with equal keys keeping their input order.
// dst has the runs' total length and is either the one run itself (sorted in
// place) or shares no memory with any run (the runs are only read, and the
// permutation out of them is the sort's one copy).
//
// Small inputs are sorted as Pairs. Larger ones are sorted as keyEntries:
// an LSD byte-radix sort on the prefix, skipping byte positions on which
// every key agrees, then a full-key sort of each stretch of equal prefixes
// (prefixes that differ order their keys; equal ones say nothing, "a" and
// "a\x00" included), then one permutation of the Pairs.
func sortByKey(dst []Pair, runs ...[]Pair) {
	n := len(dst)
	inPlace := len(runs) == 1 && n > 0 && &dst[0] == &runs[0][0]
	if n < radixSortCutoff {
		if !inPlace {
			at := 0
			for _, run := range runs {
				at += copy(dst[at:], run)
			}
		}
		slices.SortStableFunc(dst, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
		return
	}

	scratch := entryScratch.Get().(*[]keyEntry)
	defer entryScratch.Put(scratch)
	*scratch = slices.Grow((*scratch)[:0], 2*n)
	ents, spare := (*scratch)[:0], (*scratch)[n:2*n]
	or, and := uint64(0), ^uint64(0)
	for r, run := range runs {
		for o := range run {
			p := keyPrefix(run[o].Key)
			ents = append(ents, keyEntry{p, int32(r), int32(o)})
			or |= p
			and &= p
		}
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
	// The radix passes are stable, so each stretch of equal prefixes is
	// still in input order; ordering a stretch by (key, input position) is
	// the stable order, and lets the faster unstable sort produce it.
	byKeyThenInput := func(a, b keyEntry) int {
		if c := strings.Compare(runs[a.run][a.off].Key, runs[b.run][b.off].Key); c != 0 {
			return c
		}
		if c := cmp.Compare(a.run, b.run); c != 0 {
			return c
		}
		return cmp.Compare(a.off, b.off)
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
			dst[i] = runs[e.run][e.off]
		}
		return
	}
	// In place (one run, so an entry's offset is its position): follow each
	// cycle of the permutation, marking an entry done by pointing it at
	// itself.
	for i := range ents {
		if int(ents[i].off) == i {
			continue
		}
		first := dst[i]
		j := i
		for {
			k := int(ents[j].off)
			ents[j].off = int32(j)
			if k == i {
				dst[j] = first
				break
			}
			dst[j] = dst[k]
			j = k
		}
	}
}
