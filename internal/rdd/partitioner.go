package rdd

import (
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// partitioner maps record keys to reduce partitions, determining how a
// shuffle's map output is sharded (Fig. 3: each map output partition is
// saved as N shards, one per reducer).
type partitioner interface {
	NumPartitions() int
	// PartitionFor returns the shard index for a key, in [0, NumPartitions).
	PartitionFor(key string) int
	// Ready reports whether the partitioner can shard keys yet. Hash
	// partitioners are always ready; range partitioners first need
	// boundaries sampled from the map output (Spark's sortByKey sampling
	// step), which the engine installs at the map-stage barrier.
	Ready() bool
}

// hashPartitioner shards by key hash, Spark's default.
type hashPartitioner struct {
	n int
}

// NewHashPartitioner returns a hash partitioner over n shards.
func NewHashPartitioner(n int) *hashPartitioner {
	if n <= 0 {
		panic("rdd: partitioner needs n > 0")
	}
	return &hashPartitioner{n: n}
}

// NumPartitions implements partitioner.
func (p *hashPartitioner) NumPartitions() int { return p.n }

// PartitionFor implements partitioner.
func (p *hashPartitioner) PartitionFor(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(p.n))
}

// Ready implements partitioner.
func (p *hashPartitioner) Ready() bool { return true }

// rangePartitioner shards by key order so that shard i holds keys smaller
// than every key in shard i+1; used by SortByKey. Boundaries are installed
// by the engine from a sample of the shuffle input.
type rangePartitioner struct {
	n          int
	boundaries []string // len n-1, sorted; shard i covers (b[i-1], b[i]]
	ready      bool
}

// NewRangePartitioner returns an unprepared range partitioner over n
// shards.
func NewRangePartitioner(n int) *rangePartitioner {
	if n <= 0 {
		panic("rdd: partitioner needs n > 0")
	}
	return &rangePartitioner{n: n}
}

// NumPartitions implements partitioner.
func (p *rangePartitioner) NumPartitions() int { return p.n }

// Ready implements partitioner.
func (p *rangePartitioner) Ready() bool { return p.ready }

// Prepare installs shard boundaries from a sample of keys. It is
// deterministic: boundary i is the key at position i·len(sample)/n of the
// sample in byte-wise order, which cuts it into n equal-frequency buckets.
// Those n-1 keys are selected on a copy of the sample (selectCuts); the rest
// of it is never put in order.
func (p *rangePartitioner) Prepare(sample []string) {
	keys := slices.Clone(sample)
	p.boundaries = slices.Grow(p.boundaries[:0], p.n-1)
	if len(keys) > 0 {
		selectCuts(keys, 0, len(keys), 1, p.n, p.n, 2*bits.Len(uint(len(keys))))
		for i := 1; i < p.n; i++ {
			// Cloned: a sampled key may be a substring of a decoded chunk
			// (DecodePairs), and boundaries outlive every chunk of the job.
			p.boundaries = append(p.boundaries, strings.Clone(keys[i*len(keys)/p.n]))
		}
	}
	p.ready = true
}

// selectCuts is a multi-quickselect. keys[lo:hi] holds the keys a sort of
// keys would put at positions lo…hi-1, and cuts c0…c1-1 (cut c being
// position c·len(keys)/n) all fall in that range. It reorders keys[lo:hi] so
// that each cut's position holds the key a sort would put there,
// partitioning around a median of three and following only the sides that
// hold a cut. On a short range, or past budget partitions (which only inputs
// built against the pivot rule reach), it sorts the range instead. It
// allocates nothing.
func selectCuts(keys []string, lo, hi, c0, c1, n, budget int) {
	cut := func(c int) int { return c * len(keys) / n }
	for c0 < c1 {
		if hi-lo <= 12 || budget == 0 {
			slices.Sort(keys[lo:hi])
			return
		}
		budget--
		lt, gt := partition3(keys, lo, hi)
		// Cuts c0…left-1 lie below the pivot's run, left…right-1 on it.
		left := c0
		for left < c1 && cut(left) < lt {
			left++
		}
		right := left
		for right < c1 && cut(right) < gt {
			right++
		}
		selectCuts(keys, lo, lt, c0, left, n, budget)
		lo, c0 = gt, right
	}
}

// partition3 reorders keys[lo:hi] around the median of its first, middle
// and last key into the keys below it, at lo…lt-1, the keys equal to it, at
// lt…gt-1, and the keys above it, at gt…hi-1.
func partition3(keys []string, lo, hi int) (lt, gt int) {
	a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi-1]
	if a > b {
		a, b = b, a
	}
	pivot := max(a, min(b, c))
	lt, gt = lo, hi
	for i := lo; i < gt; {
		switch k := keys[i]; strings.Compare(k, pivot) {
		case -1:
			keys[lt], keys[i] = k, keys[lt]
			lt++
			i++
		case 1:
			gt--
			keys[gt], keys[i] = k, keys[gt]
		default:
			i++
		}
	}
	return lt, gt
}

// PartitionFor implements partitioner.
func (p *rangePartitioner) PartitionFor(key string) int {
	if !p.ready {
		panic("rdd: RangePartitioner used before Prepare")
	}
	// The first boundary >= key: shard i holds the keys in
	// (boundaries[i-1], boundaries[i]], so a key equal to a boundary goes to
	// the shard that boundary ends.
	return sort.SearchStrings(p.boundaries, key)
}

var (
	_ partitioner = (*hashPartitioner)(nil)
	_ partitioner = (*rangePartitioner)(nil)
)
