package rdd

import (
	"hash/fnv"
	"sort"
	"strings"
)

// Partitioner maps record keys to reduce partitions, determining how a
// shuffle's map output is sharded (Fig. 3: each map output partition is
// saved as N shards, one per reducer).
type Partitioner interface {
	NumPartitions() int
	// PartitionFor returns the shard index for a key, in [0, NumPartitions).
	PartitionFor(key string) int
	// Ready reports whether the partitioner can shard keys yet. Hash
	// partitioners are always ready; range partitioners first need
	// boundaries sampled from the map output (Spark's sortByKey sampling
	// step), which the engine installs at the map-stage barrier.
	Ready() bool
}

// HashPartitioner shards by key hash, Spark's default.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner returns a hash partitioner over n shards.
func NewHashPartitioner(n int) *HashPartitioner {
	if n <= 0 {
		panic("rdd: partitioner needs n > 0")
	}
	return &HashPartitioner{n: n}
}

// NumPartitions implements Partitioner.
func (p *HashPartitioner) NumPartitions() int { return p.n }

// PartitionFor implements Partitioner.
func (p *HashPartitioner) PartitionFor(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(p.n))
}

// Ready implements Partitioner.
func (p *HashPartitioner) Ready() bool { return true }

// RangePartitioner shards by key order so that shard i holds keys smaller
// than every key in shard i+1; used by SortByKey. Boundaries are installed
// by the engine from a sample of the shuffle input.
type RangePartitioner struct {
	n          int
	boundaries []string // len n-1, sorted; shard i covers (b[i-1], b[i]]
	ready      bool
}

// NewRangePartitioner returns an unprepared range partitioner over n
// shards.
func NewRangePartitioner(n int) *RangePartitioner {
	if n <= 0 {
		panic("rdd: partitioner needs n > 0")
	}
	return &RangePartitioner{n: n}
}

// NumPartitions implements Partitioner.
func (p *RangePartitioner) NumPartitions() int { return p.n }

// Ready implements Partitioner.
func (p *RangePartitioner) Ready() bool { return p.ready }

// Prepare installs shard boundaries from a sample of keys. It is
// deterministic: the sample is sorted and split into equal-frequency
// buckets.
func (p *RangePartitioner) Prepare(sample []string) {
	keys := make([]string, len(sample))
	copy(keys, sample)
	sort.Strings(keys)
	p.boundaries = p.boundaries[:0]
	for i := 1; i < p.n; i++ {
		idx := i * len(keys) / p.n
		if idx >= len(keys) {
			idx = len(keys) - 1
		}
		if len(keys) == 0 {
			break
		}
		// Cloned: a sampled key may be a substring of a decoded chunk
		// (DecodePairs), and boundaries outlive every chunk of the job.
		p.boundaries = append(p.boundaries, strings.Clone(keys[idx]))
	}
	p.ready = true
}

// PartitionFor implements Partitioner.
func (p *RangePartitioner) PartitionFor(key string) int {
	if !p.ready {
		panic("rdd: RangePartitioner used before Prepare")
	}
	// The first boundary >= key: shard i holds the keys in
	// (boundaries[i-1], boundaries[i]], so a key equal to a boundary goes to
	// the shard that boundary ends.
	return sort.SearchStrings(p.boundaries, key)
}

var (
	_ Partitioner = (*HashPartitioner)(nil)
	_ Partitioner = (*RangePartitioner)(nil)
)
