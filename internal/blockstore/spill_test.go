package blockstore

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"wanshuffle/internal/rdd"
)

// sameRecords fails unless got and want hold the same records (an empty
// shard read off disk is an empty slice where a resident one may be nil).
func sameRecords(t *testing.T, what string, got, want []rdd.Pair) {
	t.Helper()
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: read %d records, want %d (or they diverge)", what, len(got), len(want))
	}
}

// spilledPair returns a store with a budget of one byte holding victim
// spilled and another output resident.
func spilledPair(t *testing.T, out Output) (s *spillStore, victim, other Key) {
	t.Helper()
	s, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	victim, other = Key{Shuffle: 1, MapPart: 0}, Key{Shuffle: 1, MapPart: 1}
	if _, _, err := s.Put(victim, out); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(other, Output{Records: records(40, "o")}); err != nil {
		t.Fatal(err) // evicts victim: the budget holds one output at most
	}
	if !s.outputs[victim].spilled {
		t.Fatal("victim was not spilled")
	}
	return s, victim, other
}

// TestSpillFileEncodingRoundTrip spills each shape of output — flat, empty,
// bucketed, every bucket empty — and reads it back through every read: the
// file is its segments back to back, and every view equals the resident
// store's.
func TestSpillFileEncodingRoundTrip(t *testing.T) {
	shards, _ := modBucket(3)(records(10, "s"))
	for name, out := range map[string]Output{
		"flat":          {Records: records(10, "f")},
		"empty flat":    {},
		"bucketed":      {Shards: shards},
		"empty buckets": {Shards: make([][]rdd.Pair, 4)},
	} {
		s, victim, _ := spilledPair(t, out)
		mem := NewMemStore(nil)
		if _, _, err := mem.Put(victim, out); err != nil {
			t.Fatal(err)
		}
		e := s.outputs[victim]
		info, err := os.Stat(e.path)
		if err != nil {
			t.Fatal(err)
		}
		var size int64
		for _, seg := range e.segs {
			size += seg.n
		}
		if info.Size() != size || e.flatFile != (out.Shards == nil) {
			t.Fatalf("%s: %d-byte file for %d bytes of segments (flat file %v)", name, info.Size(), size, e.flatFile)
		}

		got, err1 := s.Get(victim)
		want, err2 := mem.Get(victim)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Get: %v, %v", name, err1, err2)
		}
		sameRecords(t, name+" Get", got, want)
		wantShards, err := mem.Shards(victim, modBucket(3))
		if err != nil {
			t.Fatal(err)
		}
		for r := range wantShards {
			got, err := s.Shard(victim, r, modBucket(3))
			if err != nil {
				t.Fatalf("%s: Shard %d: %v", name, r, err)
			}
			sameRecords(t, fmt.Sprintf("%s shard %d", name, r), got, wantShards[r])
		}
		if _, err := s.Shard(victim, len(wantShards), modBucket(3)); err == nil {
			t.Fatalf("%s: a reduce past the last shard read without error", name)
		}
		gotShards, err := s.Shards(victim, modBucket(3))
		if err != nil || len(gotShards) != len(wantShards) {
			t.Fatalf("%s: Shards = %d shards, %v; want %d", name, len(gotShards), err, len(wantShards))
		}
		for r := range gotShards {
			sameRecords(t, fmt.Sprintf("%s Shards[%d]", name, r), gotShards[r], wantShards[r])
		}
		balanced(t, s)
	}
}

// balanced checks the accountant against what the store holds.
func balanced(t *testing.T, s *spillStore) {
	t.Helper()
	st := s.Accountant().Stats()
	if st.ResidentOutputs+st.SpilledOutputs != s.Len() {
		t.Fatalf("accountant has %d resident + %d spilled outputs, store holds %d", st.ResidentOutputs, st.SpilledOutputs, s.Len())
	}
	files, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.SpilledOutputs {
		t.Fatalf("%d spill files on disk, accountant says %d", len(files), st.SpilledOutputs)
	}
	if st.ResidentBytes < 0 || st.SpilledBytes < 0 {
		t.Fatalf("negative occupancy: %+v", st)
	}
}

// TestShardReadDoesNotEvict reads every (reduce, map) shard of eight
// spilled-or-resident outputs, flat and pre-bucketed, in reducer order under
// a budget of one output: each read equals the resident store's, no read
// makes an output resident or spills another one, and one sweep reloads no
// more than was spilled.
func TestShardReadDoesNotEvict(t *testing.T) {
	const outputs, parts = 8, 8
	key := func(m int) Key { return Key{Shuffle: 1, MapPart: m} }
	outs := make([]Output, outputs)
	for m := range outs {
		outs[m] = Output{Records: records(64, fmt.Sprintf("m%d", m))}
		if m%2 == 0 {
			shards, _ := modBucket(parts)(outs[m].Records)
			outs[m] = Output{Shards: shards}
		}
	}
	s, err := NewSpillStore(SpillConfig{MemoryBudget: outs[0].bytes(), Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mem := NewMemStore(nil)
	for m, out := range outs {
		if _, _, err := s.Put(key(m), out); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mem.Put(key(m), out); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Accountant().Stats(); st.SpilledOutputs != outputs-1 || st.SpillEvents != outputs-1 {
		t.Fatalf("after the puts: %+v, want %d outputs spilled once each", st, outputs-1)
	}

	read := make([]bool, outputs)
	for r := 0; r < parts; r++ {
		for m := 0; m < outputs; m++ {
			before := s.Accountant().Stats()
			got, err := s.Shard(key(m), r, modBucket(parts))
			if err != nil {
				t.Fatalf("reduce %d map %d: %v", r, m, err)
			}
			want, err := mem.Shard(key(m), r, modBucket(parts))
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fmt.Sprintf("reduce %d map %d", r, m), got, want)
			after := s.Accountant().Stats()
			if read[m] && after.SpillEvents != before.SpillEvents {
				t.Fatalf("reduce %d map %d: a read spilled (%d → %d spill events)", r, m, before.SpillEvents, after.SpillEvents)
			}
			if after.ResidentOutputs != 1 || after.SpilledOutputs != outputs-1 {
				t.Fatalf("reduce %d map %d: a read moved an output: %+v", r, m, after)
			}
			read[m] = true
			balanced(t, s)
		}
	}
	st := s.Accountant().Stats()
	// Each spilled flat output (odd maps but the resident last one) is
	// rewritten as shards on its first read, once.
	if want := int64(outputs - 1 + outputs/2 - 1); st.SpillEvents != want {
		t.Fatalf("%d spill events, want %d", st.SpillEvents, want)
	}
	if st.ReloadEvents == 0 || st.ReloadBytesTotal > st.SpilledBytesTotal {
		t.Fatalf("a sweep of every shard reloaded %d bytes in %d reads; %d were spilled", st.ReloadBytesTotal, st.ReloadEvents, st.SpilledBytesTotal)
	}
}

// TestDamagedSpillFileFailsItsReadsOnly damages a bucketed output's spill
// file — a bit flipped inside one shard, truncated, emptied, grown — and
// checks that exactly the damaged shards' reads fail with errCorrupt, every
// time, while the other shards, the other outputs and the accounting are
// untouched. Then it does the same to flat outputs' files.
func TestDamagedSpillFileFailsItsReadsOnly(t *testing.T) {
	const parts = 4
	flipIn := func(k int) func([]byte, []segment) []byte {
		return func(b []byte, segs []segment) []byte { b[segs[k].off+segs[k].n/2] ^= 0x10; return b }
	}
	only := func(k int) func(int) bool { return func(i int) bool { return i == k } }
	damages := map[string]struct {
		damage func([]byte, []segment) []byte
		fails  func(shard int) bool
	}{
		"bit in shard 0":      {flipIn(0), only(0)},
		"bit in shard 2":      {flipIn(2), only(2)},
		"last byte's bit":     {func(b []byte, _ []segment) []byte { b[len(b)-1] ^= 1; return b }, only(parts - 1)},
		"cut inside shard 1":  {func(b []byte, s []segment) []byte { return b[:s[1].off+s[1].n/2] }, func(i int) bool { return i >= 1 }},
		"cut after shard 2":   {func(b []byte, s []segment) []byte { return b[:s[3].off] }, only(3)},
		"one byte short":      {func(b []byte, _ []segment) []byte { return b[:len(b)-1] }, only(parts - 1)},
		"emptied":             {func([]byte, []segment) []byte { return nil }, func(int) bool { return true }},
		"another's content":   {func([]byte, []segment) []byte { return []byte("not a spill file at all") }, func(int) bool { return true }},
		"bytes appended":      {func(b []byte, _ []segment) []byte { return append(b, 0, 0) }, func(int) bool { return false }},
		"appended and bit in": {func(b []byte, s []segment) []byte { return append(flipIn(1)(b, s), 7) }, only(1)},
	}
	for name, tc := range damages {
		want, _ := modBucket(parts)(records(40, "v"))
		s, victim, other := spilledPair(t, Output{Shards: want})
		e := s.outputs[victim]
		data, err := os.ReadFile(e.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.path, tc.damage(data, e.segs), 0o600); err != nil {
			t.Fatal(err)
		}

		reads, anyFails := int64(0), false
		for i := 0; i < 2; i++ { // the failure is stable, not a one-off
			for k := 0; k < parts; k++ {
				got, err := s.Shard(victim, k, modBucket(parts))
				if tc.fails(k) {
					anyFails = true
					if !errors.Is(err, errCorrupt) {
						t.Fatalf("%s: shard %d err = %v, want errCorrupt", name, k, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: undamaged shard %d: %v", name, k, err)
				}
				sameRecords(t, fmt.Sprintf("%s shard %d", name, k), got, want[k])
				reads++
			}
		}
		if _, err := s.Get(victim); errors.Is(err, errCorrupt) != anyFails {
			t.Fatalf("%s: Get err = %v", name, err)
		}
		if _, err := s.Shards(victim, modBucket(parts)); errors.Is(err, errCorrupt) != anyFails {
			t.Fatalf("%s: Shards err = %v", name, err)
		}
		balanced(t, s)
		// Get and Shards each read the shards before the first damaged one.
		firstFail := 0
		for firstFail < parts && !tc.fails(firstFail) {
			firstFail++
		}
		reads += 2 * int64(firstFail)
		st := s.Accountant().Stats()
		if st.ReloadEvents != reads || st.SpillEvents != 1 {
			t.Fatalf("%s: %d reloads and %d spills accounted, want %d and 1: a failed read was accounted", name, st.ReloadEvents, st.SpillEvents, reads)
		}
		stillServes(t, name, s, victim, other)
	}

	// A flat output's file is one segment, so damage anywhere fails its
	// bucketing read — every read of the output — and the output stays flat
	// and spilled with nothing accounted until a fresh Put replaces it.
	flatDamages := map[string]func([]byte) []byte{
		"flat record bit": func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		"flat truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"flat emptied":    func([]byte) []byte { return nil },
	}
	for name, damage := range flatDamages {
		s, victim, other := spilledPair(t, Output{Records: records(40, "v")})
		e := s.outputs[victim]
		data, err := os.ReadFile(e.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(e.path, damage(data), 0o600); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			for k := 0; k < 4; k++ {
				if _, err := s.Shard(victim, k, modBucket(4)); !errors.Is(err, errCorrupt) {
					t.Fatalf("%s: shard %d err = %v, want errCorrupt", name, k, err)
				}
			}
			if _, err := s.Get(victim); !errors.Is(err, errCorrupt) {
				t.Fatalf("%s: Get err = %v, want errCorrupt", name, err)
			}
			if _, err := s.Shards(victim, modBucket(4)); !errors.Is(err, errCorrupt) {
				t.Fatalf("%s: Shards err = %v, want errCorrupt", name, err)
			}
		}
		if !e.spilled || !e.flatFile {
			t.Fatalf("%s: a failed bucketing read changed the entry (spilled %v, flat file %v)", name, e.spilled, e.flatFile)
		}
		balanced(t, s)
		if st := s.Accountant().Stats(); st.ReloadEvents != 0 || st.SpillEvents != 1 {
			t.Fatalf("%s: a failed read was accounted: %+v", name, st)
		}
		stillServes(t, name, s, victim, other)
	}
}

// stillServes checks a store whose victim output is damaged still stores,
// spills and serves, that a fresh Put of victim heals it, and that Reset
// leaves nothing behind.
func stillServes(t *testing.T, name string, s *spillStore, victim, other Key) {
	t.Helper()
	if got, err := s.Get(other); err != nil || !reflect.DeepEqual(got, records(40, "o")) {
		t.Fatalf("%s: undamaged output unreadable: %v", name, err)
	}
	third := Key{Shuffle: 1, MapPart: 2}
	if _, _, err := s.Put(third, Output{Records: records(40, "t")}); err != nil {
		t.Fatalf("%s: Put after a corrupt read: %v", name, err)
	}
	if got, err := s.Get(other); err != nil || !reflect.DeepEqual(got, records(40, "o")) {
		t.Fatalf("%s: spilled output unreadable after a corrupt read: %v", name, err)
	}
	balanced(t, s)
	if _, _, err := s.Put(victim, Output{Attempt: 1, Records: records(40, "v2")}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(victim); err != nil || !reflect.DeepEqual(got, records(40, "v2")) {
		t.Fatalf("%s: re-put output unreadable: %v", name, err)
	}
	balanced(t, s)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	balanced(t, s)
	if st := s.Accountant().Stats(); st.ResidentBytes != 0 || st.SpilledBytes != 0 {
		t.Fatalf("%s: bytes left after Reset: %+v", name, st)
	}
}

// tooDeep is a value SizeOf sizes but the record codec refuses: a []rdd.Value
// nested past the codec's 32-level bound.
func tooDeep() rdd.Value {
	v := rdd.Value("leaf")
	for i := 0; i <= 32; i++ {
		v = []rdd.Value{v}
	}
	return v
}

// TestSpillRejectsUnencodableOutputBeforeWriting: an output holding a value
// the record codec cannot carry fails its spill with the typed error and
// leaves no file; the output stays resident and readable.
func TestSpillRejectsUnencodableOutputBeforeWriting(t *testing.T) {
	s, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []rdd.Pair{rdd.KV("fine", 1), rdd.KV("bad", tooDeep())}
	if _, _, err := s.Put(Key{MapPart: 0}, Output{Records: bad}); err != nil {
		t.Fatal(err) // alone in the store: nothing to evict
	}
	_, _, err = s.Put(Key{MapPart: 1}, Output{Records: records(4, "g")})
	var unsupported *rdd.UnsupportedValueError
	if !errors.As(err, &unsupported) || unsupported.Key != "bad" {
		t.Fatalf("Put evicting the unencodable output: err = %v, want *rdd.UnsupportedValueError for key bad", err)
	}
	balanced(t, s)
	if st := s.Accountant().Stats(); st.SpillEvents != 0 || st.ResidentOutputs != 2 {
		t.Fatalf("failed spill was accounted: %+v", st)
	}
	if got, err := s.Get(Key{MapPart: 0}); err != nil || !reflect.DeepEqual(got, bad) {
		t.Fatalf("unencodable output no longer readable: %v", err)
	}
}
