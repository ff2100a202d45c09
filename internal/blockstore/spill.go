package blockstore

import (
	"encoding/binary"
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
	// MemoryBudget is the resident-byte budget. Whenever resident bytes
	// exceed it, the coldest outputs (least recently stored or read) are
	// written to temp files until the store fits again, and reloaded
	// transparently on their next read. Must be positive.
	MemoryBudget int64
	// Dir is where spill files live; each store creates (and removes on
	// Close) its own subdirectory under it. Empty means the OS temp dir.
	Dir string
}

// spillEntry is one stored output, resident or on disk. While resident,
// exactly one of flat/shards is non-nil; while spilled, both are nil and
// path names the file holding the encoded output (encodeOutput).
type spillEntry struct {
	attempt int
	flat    []rdd.Pair
	shards  [][]rdd.Pair
	bytes   int64
	lastUse uint64
	spilled bool
	path    string
}

// A spill file is one output in the record codec of internal/rdd:
//
//	kind      1 byte: spillFlat or spillShards
//	nShards   uvarint (1 for a flat output)
//	nShards × { uvarint length, rdd.AppendPairs payload }
//	crc32c    4 bytes little-endian, over everything before it
const (
	spillFlat   byte = 1
	spillShards byte = 2
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)
	// spillBufs recycles the buffers outputs are encoded in on their way
	// to disk.
	spillBufs = sync.Pool{New: func() any { return new([]byte) }}
)

// ErrCorrupt is wrapped by the error a read returns when the output's
// spill file does not hold what was written: truncated, or failing its
// checksum. The entry stays in the store (reads of it keep failing) and
// every other output stays readable.
var ErrCorrupt = errors.New("blockstore: corrupt spill file")

// encodeOutput appends the spill-file encoding of one output to dst. It
// fails, before appending anything, on a value the record codec cannot
// carry (*rdd.UnsupportedValueError).
func encodeOutput(dst []byte, flat []rdd.Pair, shards [][]rdd.Pair) ([]byte, error) {
	kind := spillShards
	if shards == nil {
		kind, shards = spillFlat, [][]rdd.Pair{flat}
	}
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(shards)))
	for _, shard := range shards {
		dst = binary.AppendUvarint(dst, uint64(rdd.EncodedSize(shard)))
		var err error
		if dst, err = rdd.AppendPairs(dst, shard); err != nil {
			return dst[:start], err
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable)), nil
}

// decodeOutput is encodeOutput's inverse. It takes ownership of buf (the
// decoded records are cut out of it, see rdd.DecodePairs).
func decodeOutput(buf []byte) (flat []rdd.Pair, shards [][]rdd.Pair, err error) {
	if len(buf) < 6 {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	kind, rest := body[0], body[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)) || (kind != spillFlat && kind != spillShards) || (kind == spillFlat && n != 1) {
		return nil, nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	rest = rest[w:]
	shards = make([][]rdd.Pair, n)
	for i := range shards {
		size, w := binary.Uvarint(rest)
		if w <= 0 || size > uint64(len(rest)-w) {
			return nil, nil, fmt.Errorf("%w: shard %d overruns the file", ErrCorrupt, i)
		}
		if shards[i], err = rdd.DecodePairs(rest[w : w+int(size) : w+int(size)]); err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		rest = rest[w+int(size):]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	if kind == spillFlat {
		return shards[0], nil, nil
	}
	return nil, shards, nil
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
	return slices.Concat(e.shards...), nil
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
	buf, err := os.ReadFile(e.path)
	if err != nil {
		return fmt.Errorf("blockstore: reloading spilled output: %w", err)
	}
	flat, shards, err := decodeOutput(buf)
	if err != nil {
		return fmt.Errorf("blockstore: decoding spilled output %s: %w", e.path, err)
	}
	_ = os.Remove(e.path)
	e.flat, e.shards = flat, shards
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
// spill directory and frees its records. The entry is encoded in full
// first, so an output that cannot be encoded leaves no file behind.
func (s *SpillStore) spillLocked(e *spillEntry) error {
	buf := spillBufs.Get().(*[]byte)
	defer spillBufs.Put(buf)
	data, err := encodeOutput((*buf)[:0], e.flat, e.shards)
	*buf = data[:0]
	if err != nil {
		return fmt.Errorf("blockstore: encoding spill file: %w", err)
	}
	s.nfiles++
	path := fmt.Sprintf("%s%cblock-%d", s.dir, os.PathSeparator, s.nfiles)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		_ = os.Remove(path)
		return fmt.Errorf("blockstore: writing spill file: %w", err)
	}
	e.flat, e.shards = nil, nil
	e.spilled, e.path = true, path
	s.acct.spill(e.bytes)
	return nil
}
