package blockstore

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
	"sync"

	"wanshuffle/internal/rdd"
)

// SpillConfig configures a budgeted SpillStore.
type SpillConfig struct {
	// MemoryBudget is the resident-byte budget. Whenever resident bytes
	// exceed it, the coldest outputs (least recently stored or read) are
	// gob-encoded to temp files until the store fits again, and reloaded
	// transparently on their next read. Must be positive.
	MemoryBudget int64
	// Dir is where spill files live; each store creates (and removes on
	// Close) its own subdirectory under it. Empty means the OS temp dir.
	Dir string
}

// spillEntry is one stored output, resident or on disk. While resident,
// exactly one of flat/shards is non-nil; while spilled, both are nil and
// path names the file holding the gob-encoded blob.
type spillEntry struct {
	attempt int
	flat    []rdd.Pair
	shards  [][]rdd.Pair
	bytes   int64
	lastUse uint64
	spilled bool
	path    string
}

// spillBlob is the on-disk encoding of one output.
type spillBlob struct {
	Flat   []rdd.Pair
	Shards [][]rdd.Pair
}

// SpillStore is the Store implementation. Outputs are resident until the
// memory budget is exceeded, then the coldest ones spill to per-store temp
// files and reload transparently when read again. Without a budget
// (NewMemStore) nothing ever spills and no spill directory exists: the
// fully resident store is this store with the budget check switched off.
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
	rdd.RegisterGobTypes()
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

// Get implements Store.
func (s *SpillStore) Get(key Key) ([]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	if err := s.ensureResidentLocked(e); err != nil {
		return nil, err
	}
	if e.shards == nil {
		return e.flat, nil
	}
	var out []rdd.Pair
	for _, shard := range e.shards {
		out = append(out, shard...)
	}
	return out, nil
}

// Shards implements Store.
func (s *SpillStore) Shards(key Key, bucket BucketFunc) ([][]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	if err := s.ensureResidentLocked(e); err != nil {
		return nil, err
	}
	if e.shards == nil {
		shards, err := bucket(e.flat)
		if err != nil {
			return nil, err
		}
		e.shards = shards
		e.flat = nil
	}
	return e.shards, nil
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

// ensureResidentLocked reloads a spilled entry and re-enforces the budget
// against the other entries (the reload itself may overflow it).
func (s *SpillStore) ensureResidentLocked(e *spillEntry) error {
	s.touchLocked(e)
	if !e.spilled {
		return nil
	}
	f, err := os.Open(e.path)
	if err != nil {
		return fmt.Errorf("blockstore: reloading spilled output: %w", err)
	}
	var blob spillBlob
	err = gob.NewDecoder(bufio.NewReader(f)).Decode(&blob)
	_ = f.Close()
	if err != nil {
		return fmt.Errorf("blockstore: decoding spilled output %s: %w", e.path, err)
	}
	_ = os.Remove(e.path)
	e.flat, e.shards = blob.Flat, blob.Shards
	e.spilled, e.path = false, ""
	s.acct.reload(e.bytes)
	return s.enforceBudgetLocked(e)
}

// enforceBudgetLocked spills the coldest resident entries (never exclude,
// the one the caller is actively using) until resident bytes fit the
// budget or no candidate remains. A store without a budget never spills.
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

// spillLocked writes one resident entry to a fresh file in the store's
// spill directory and frees its records.
func (s *SpillStore) spillLocked(e *spillEntry) error {
	s.nfiles++
	path := fmt.Sprintf("%s%cblock-%d.gob", s.dir, os.PathSeparator, s.nfiles)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("blockstore: creating spill file: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := gob.NewEncoder(bw).Encode(&spillBlob{Flat: e.flat, Shards: e.shards}); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return fmt.Errorf("blockstore: encoding spill file: %w", err)
	}
	if err := bw.Flush(); err == nil {
		err = f.Close()
	} else {
		_ = f.Close()
	}
	if err != nil {
		_ = os.Remove(path)
		return fmt.Errorf("blockstore: writing spill file: %w", err)
	}
	e.flat, e.shards = nil, nil
	e.spilled, e.path = true, path
	s.acct.spill(e.bytes)
	return nil
}
