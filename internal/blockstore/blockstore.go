// Package blockstore is the storage seam under every shuffle data plane:
// map outputs (flat records before the partitioner is ready, per-reduce
// shards after) live behind the Store interface instead of ad-hoc maps
// inside each backend. Each live worker's one store (holding its own map
// outputs and, on an aggregator, the ones pushed to it) and the planner's
// in-memory reference backend keep their shuffle blocks here, so the
// semantics that keep those backends in
// agreement — last-write-wins by task attempt, exactly-once bucketing of
// flat outputs on first shard read — are implemented once.
//
// One implementation exists, SpillStore. Without a memory budget
// (NewMemStore) it holds everything resident. With one (NewSpillStore),
// when a Put takes resident bytes over it the coldest outputs are written
// to per-store temp files, each shard as its own checksummed segment in
// the record codec of internal/rdd. A spilled output stays on disk: a
// reader decodes only the shard it asks for, and no read evicts another
// output. So an aggregator that concentrates a whole job's shuffle input
// (the paper's Push/Aggregate design) is bounded by disk, not by resident
// heap. Either way the store feeds a byte Accountant, which the live run
// report's storage section reads.
package blockstore

import (
	"errors"
	"fmt"
	"sync"

	"wanshuffle/internal/rdd"
)

// Key identifies one stored map output: the shuffle it belongs to and the
// map partition that produced it. The producing attempt travels with the
// Output value; the reduce dimension is addressed by Shard.
type Key struct {
	Shuffle int
	MapPart int
}

func (k Key) String() string { return fmt.Sprintf("shuffle %d map %d", k.Shuffle, k.MapPart) }

// Output is one map output as handed to Put. Exactly one of Records
// (flat, partitioner not ready yet) or Shards (already bucketed per
// reduce) carries the data.
type Output struct {
	// Attempt is the map-task attempt that produced the output; Put keeps
	// the highest attempt per key (duplicate pushes from retried tasks are
	// idempotent, last-write-wins by attempt).
	Attempt int
	Records []rdd.Pair
	Shards  [][]rdd.Pair
}

// bytes estimates the output's resident size.
func (o *Output) bytes() int64 {
	if o.Shards != nil {
		var s float64
		for _, shard := range o.Shards {
			s += rdd.SizeOfAll(shard)
		}
		return int64(s)
	}
	return int64(rdd.SizeOfAll(o.Records))
}

// BucketFunc buckets one flat output into per-reduce shards. Stores call
// it at most once per key — the first read of a flat output — so
// callers may count invocations to observe deferred bucketing.
type BucketFunc func(records []rdd.Pair) ([][]rdd.Pair, error)

// ErrNotFound reports a read of a key no Put has stored.
var ErrNotFound = errors.New("blockstore: no such output")

// Store holds shuffle map outputs keyed by (shuffle, mapPart), with the
// producing attempt and per-reduce shards addressed through the call
// surface. Implementations are safe for concurrent use.
type Store interface {
	// Put installs out under key, last-write-wins by attempt: an older
	// attempt never clobbers a newer one. stored reports whether out was
	// installed; dup reports whether an output already existed under key
	// (a duplicate push).
	Put(key Key, out Output) (stored, dup bool, err error)

	// Shard returns one reduce shard of the output; a reduce the output
	// has no shard for is an error. A flat output is bucketed through
	// bucket once, on its first read, and the result replaces the flat
	// records — never re-bucketed per read. A spilled output stays on
	// disk: the read decodes that one shard and evicts nothing.
	Shard(key Key, reduce int, bucket BucketFunc) ([]rdd.Pair, error)

	// Get returns the output's flat record view: the records as stored
	// for flat outputs, or the shards flattened in shard order for
	// bucketed ones. Nothing on a job's path calls it; it stays only for
	// the benchmark's layer probes and goes with them (ROADMAP 1(b)).
	Get(key Key) ([]rdd.Pair, error)

	// Shards returns every shard of the output, bucketing it as Shard
	// does. Nothing on a job's path calls it; it stays only for the
	// benchmark's layer probes and goes with them (ROADMAP 1(b)).
	Shards(key Key, bucket BucketFunc) ([][]rdd.Pair, error)

	// Len reports how many outputs are stored.
	Len() int

	// Reset discards every output (between jobs; shuffle IDs are
	// graph-scoped, so leftovers could collide).
	Reset() error

	// Close releases the store's resources (spill files, directories).
	// The store must not be used afterwards.
	Close() error

	// Accountant returns the store's byte accounting.
	Accountant() *Accountant
}

// Stats is a point-in-time snapshot of a store's byte accounting.
type Stats struct {
	// ResidentBytes is the estimated size of the outputs held in memory.
	ResidentBytes int64
	// ResidentOutputs counts in-memory outputs.
	ResidentOutputs int
	// SpilledBytes / SpilledOutputs describe what is on disk right now.
	SpilledBytes   int64
	SpilledOutputs int
	// SpilledBytesTotal / SpillEvents accumulate over the store's life.
	SpilledBytesTotal int64
	SpillEvents       int64
	// ReloadBytesTotal / ReloadEvents count shard reads from disk, each
	// the shard's share of its output's bytes.
	ReloadBytesTotal int64
	ReloadEvents     int64
}

// Add folds other into s (aggregating across per-worker stores).
func (s *Stats) Add(other Stats) {
	s.ResidentBytes += other.ResidentBytes
	s.ResidentOutputs += other.ResidentOutputs
	s.SpilledBytes += other.SpilledBytes
	s.SpilledOutputs += other.SpilledOutputs
	s.SpilledBytesTotal += other.SpilledBytesTotal
	s.SpillEvents += other.SpillEvents
	s.ReloadBytesTotal += other.ReloadBytesTotal
	s.ReloadEvents += other.ReloadEvents
}

// Accountant tracks one store's byte occupancy and spill activity; the
// run report's storage section reads its Stats. A nil *Accountant no-ops.
type Accountant struct {
	mu sync.Mutex
	st Stats
}

// Stats returns the current snapshot.
func (a *Accountant) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// resident applies a resident-set delta: n bytes and outputs outputs
// (either may be negative).
func (a *Accountant) resident(n int64, outputs int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.st.ResidentBytes += n
	a.st.ResidentOutputs += outputs
}

// spill records one spill file of an n-byte output written. fromMemory
// moves the output from memory to disk; a spilled output rewritten in
// place stays where it was.
func (a *Accountant) spill(n int64, fromMemory bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if fromMemory {
		a.st.ResidentBytes -= n
		a.st.ResidentOutputs--
		a.st.SpilledBytes += n
		a.st.SpilledOutputs++
	}
	a.st.SpilledBytesTotal += n
	a.st.SpillEvents++
}

// reload records one read of n bytes' worth of a spilled output. The
// output stays on disk.
func (a *Accountant) reload(n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.st.ReloadBytesTotal += n
	a.st.ReloadEvents++
}

// dropSpilled records one spilled output of n bytes discarded from disk
// without reloading (drops and resets).
func (a *Accountant) dropSpilled(n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.st.SpilledBytes -= n
	a.st.SpilledOutputs--
}
