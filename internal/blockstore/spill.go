package blockstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sync"

	"wanshuffle/internal/rdd"
)

// SpillConfig configures a budgeted SpillStore.
type SpillConfig struct {
	// MemoryBudget is the resident-byte budget. Whenever a Put takes
	// resident bytes over it, the coldest outputs (least recently stored or
	// read) are written to temp files until the store fits again, and read
	// from there one shard at a time. Must be positive.
	MemoryBudget int64
	// Dir is where spill files live; each store creates (and removes on
	// Close) its own subdirectory under it. Empty means the OS temp dir.
	Dir string
}

// spillEntry is one stored output, resident or on disk. While resident,
// exactly one of flat/shards is non-nil. While spilled both are nil, path
// names the output's file and segs indexes it: one segment per shard, or a
// single segment holding a flat output (flatFile).
type spillEntry struct {
	attempt  int
	flat     []rdd.Pair
	shards   [][]rdd.Pair
	bytes    int64
	lastUse  uint64
	spilled  bool
	path     string
	segs     []segment
	flatFile bool
}

// segment locates one rdd.AppendPairs payload in a spill file. The index is
// in memory only: a spill file never outlives its store.
type segment struct {
	off, n int64
	crc    uint32 // CRC-32C of the payload
}

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)
	// spillBufs recycles the buffers outputs are encoded in on their way
	// to disk.
	spillBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// ErrCorrupt is wrapped by the error a read returns when the segment it
// reads does not hold what was written: short, failing its checksum, or not
// decoding. Only that shard's reads fail (every time); the output's other
// shards and every other output stay readable.
var ErrCorrupt = errors.New("blockstore: corrupt spill file")

// SpillStore is the Store implementation. Outputs are resident until the
// memory budget is exceeded, then the coldest ones spill to per-store temp
// files, one segment per shard, and are read from there one shard at a
// time. Without a budget (NewMemStore) nothing ever spills and no spill
// directory exists: the fully resident store is this store with the budget
// check switched off.
type SpillStore struct {
	mu      sync.Mutex
	acct    *Accountant
	cfg     SpillConfig
	dir     string
	outputs map[Key]*spillEntry
	tick    uint64
	nfiles  int
}

// NewMemStore returns an empty, fully resident store accounting into acct
// (nil for a private, unobserved accountant).
func NewMemStore(acct *Accountant) *SpillStore {
	if acct == nil {
		acct = NewAccountant(nil)
	}
	return &SpillStore{acct: acct, outputs: map[Key]*spillEntry{}}
}

// NewSpillStore creates a budgeted store spilling into its own
// subdirectory of cfg.Dir. acct may be nil for a private, unobserved
// accountant.
func NewSpillStore(cfg SpillConfig, acct *Accountant) (*SpillStore, error) {
	if cfg.MemoryBudget <= 0 {
		return nil, fmt.Errorf("blockstore: memory budget must be positive, got %d", cfg.MemoryBudget)
	}
	dir, err := os.MkdirTemp(cfg.Dir, "wanshuffle-spill-")
	if err != nil {
		return nil, fmt.Errorf("blockstore: creating spill dir: %w", err)
	}
	s := NewMemStore(acct)
	s.cfg, s.dir = cfg, dir
	return s, nil
}

// Dir returns the store's spill directory (removed on Close); empty for a
// store without a budget.
func (s *SpillStore) Dir() string { return s.dir }

// touchLocked marks e as most recently used.
func (s *SpillStore) touchLocked(e *spillEntry) {
	s.tick++
	e.lastUse = s.tick
}

// Put implements Store.
func (s *SpillStore) Put(key Key, out Output) (stored, dup bool, err error) {
	e := &spillEntry{attempt: out.Attempt, flat: out.Records, shards: out.Shards, bytes: out.bytes()}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.outputs[key]
	if old != nil {
		if old.attempt > out.Attempt {
			return false, true, nil // stale retried push; keep the newer output
		}
		s.discardLocked(old)
		dup = true
	}
	s.touchLocked(e)
	s.outputs[key] = e
	s.acct.resident(e.bytes, 1)
	return true, dup, s.enforceBudgetLocked(e)
}

// Shard implements Store.
func (s *SpillStore) Shard(key Key, reduce int, bucket BucketFunc) ([]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, shards, err := s.bucketedLocked(key, bucket)
	switch {
	case err != nil:
		return nil, err
	case shards == nil && reduce >= 0 && reduce < len(e.segs):
		return s.readLocked(e, reduce)
	case reduce >= 0 && reduce < len(shards):
		return shards[reduce], nil
	}
	return nil, fmt.Errorf("blockstore: %v has no reduce %d", key, reduce)
}

// Shards implements Store.
func (s *SpillStore) Shards(key Key, bucket BucketFunc) ([][]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, shards, err := s.bucketedLocked(key, bucket)
	if err != nil || shards != nil {
		return shards, err
	}
	return s.shardsLocked(e)
}

// Get implements Store.
func (s *SpillStore) Get(key Key) ([]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	s.touchLocked(e)
	if !e.spilled && e.shards == nil {
		return e.flat, nil
	}
	shards, err := s.shardsLocked(e)
	return slices.Concat(shards...), err
}

// Len implements Store.
func (s *SpillStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outputs)
}

// Reset implements Store.
func (s *SpillStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.outputs {
		s.discardLocked(e)
		delete(s.outputs, key)
	}
	return nil
}

// Close implements Store: drops every output and removes the spill
// directory, if the store has one.
func (s *SpillStore) Close() error {
	if err := s.Reset(); err != nil {
		return err
	}
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// Accountant implements Store.
func (s *SpillStore) Accountant() *Accountant { return s.acct }

// discardLocked forgets one entry's storage (file included) without
// removing it from the map; callers delete or replace the map slot.
func (s *SpillStore) discardLocked(e *spillEntry) {
	if e.spilled {
		_ = os.Remove(e.path)
		s.acct.dropSpilled(e.bytes)
		return
	}
	s.acct.resident(-e.bytes, -1)
}

// bucketedLocked looks key up, marks it used and buckets a flat output: in
// memory while resident, and while spilled by reading its one segment and
// rewriting the file as per-shard segments — never making it resident, so
// no read evicts. The shards it returns are nil when they are on disk.
func (s *SpillStore) bucketedLocked(key Key, bucket BucketFunc) (*spillEntry, [][]rdd.Pair, error) {
	e, ok := s.outputs[key]
	if !ok {
		return nil, nil, ErrNotFound
	}
	s.touchLocked(e)
	if e.shards != nil || (e.spilled && !e.flatFile) {
		return e, e.shards, nil
	}
	flat := e.flat
	if e.spilled {
		var err error
		if flat, err = s.readLocked(e, 0); err != nil {
			return nil, nil, err
		}
	}
	shards, err := bucket(flat)
	if err != nil {
		return nil, nil, err
	}
	if !e.spilled {
		e.flat, e.shards = nil, shards
		return e, shards, nil
	}
	if err := s.writeLocked(e, shards, false); err != nil {
		return nil, nil, err
	}
	s.acct.spill(e.bytes, false)
	return e, shards, nil
}

// shardsLocked returns every shard of e: its own while resident, each read
// from disk while spilled.
func (s *SpillStore) shardsLocked(e *spillEntry) ([][]rdd.Pair, error) {
	if !e.spilled {
		return e.shards, nil
	}
	shards := make([][]rdd.Pair, len(e.segs))
	for i := range shards {
		var err error
		if shards[i], err = s.readLocked(e, i); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// readLocked reads, checks and decodes segment i of spilled entry e, and
// accounts its share of e's bytes as reloaded. The entry stays spilled.
func (s *SpillStore) readLocked(e *spillEntry, i int) ([]rdd.Pair, error) {
	seg := e.segs[i]
	f, err := os.Open(e.path)
	if err != nil {
		return nil, fmt.Errorf("blockstore: reading spilled output: %w", err)
	}
	buf := make([]byte, seg.n)
	_, err = f.ReadAt(buf, seg.off)
	_ = f.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: %s shard %d: %v", ErrCorrupt, e.path, i, err)
	}
	if crc32.Checksum(buf, crcTable) != seg.crc {
		return nil, fmt.Errorf("%w: %s shard %d: checksum mismatch", ErrCorrupt, e.path, i)
	}
	recs, err := rdd.DecodePairs(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: %s shard %d: %v", ErrCorrupt, e.path, i, err)
	}
	last := e.segs[len(e.segs)-1]
	s.acct.reload(e.bytes * seg.n / (last.off + last.n))
	return recs, nil
}

// enforceBudgetLocked spills the coldest resident entries (never exclude,
// the one the caller is actively using) until resident bytes fit the
// budget or no candidate remains. A store without a budget never spills.
// Only Put calls it: reads leave spilled entries on disk.
func (s *SpillStore) enforceBudgetLocked(exclude *spillEntry) error {
	if s.cfg.MemoryBudget <= 0 {
		return nil
	}
	for s.acct.Stats().ResidentBytes > s.cfg.MemoryBudget {
		var victim *spillEntry
		for _, e := range s.outputs {
			if e.spilled || e == exclude {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return nil // nothing left to evict; stay over budget
		}
		if err := s.spillLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// spillLocked writes one resident entry to disk, a flat output as a single
// segment, and frees its records.
func (s *SpillStore) spillLocked(e *spillEntry) error {
	shards, flat := e.shards, e.shards == nil
	if flat {
		shards = [][]rdd.Pair{e.flat}
	}
	if err := s.writeLocked(e, shards, flat); err != nil {
		return err
	}
	e.flat, e.shards, e.spilled = nil, nil, true
	s.acct.spill(e.bytes, true)
	return nil
}

// writeLocked encodes shards back to back into a fresh file in the store's
// spill directory, points e's path and segment index at it and removes the
// file it replaces, if any. Everything is encoded first, so an output that
// cannot be encoded leaves no file behind and e as it was.
func (s *SpillStore) writeLocked(e *spillEntry, shards [][]rdd.Pair, flat bool) error {
	buf := spillBufs.Get().(*[]byte)
	defer spillBufs.Put(buf)
	data, segs := (*buf)[:0], make([]segment, len(shards))
	for i, shard := range shards {
		off := len(data)
		var err error
		if data, err = rdd.AppendPairs(data, shard); err != nil {
			return fmt.Errorf("blockstore: encoding spill file: %w", err)
		}
		segs[i] = segment{off: int64(off), n: int64(len(data) - off), crc: crc32.Checksum(data[off:], crcTable)}
	}
	*buf = data[:0]
	s.nfiles++
	path := fmt.Sprintf("%s%cblock-%d", s.dir, os.PathSeparator, s.nfiles)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		_ = os.Remove(path)
		return fmt.Errorf("blockstore: writing spill file: %w", err)
	}
	if e.spilled {
		_ = os.Remove(e.path)
	}
	e.path, e.segs, e.flatFile = path, segs, flat
	return nil
}
