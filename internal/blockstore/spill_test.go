package blockstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wanshuffle/internal/rdd"
)

func TestSpillFileEncodingRoundTrip(t *testing.T) {
	shards, _ := modBucket(3)(records(10, "s"))
	for name, tc := range map[string]struct {
		flat   []rdd.Pair
		shards [][]rdd.Pair
	}{
		"flat":          {flat: records(10, "f")},
		"empty flat":    {},
		"bucketed":      {shards: shards},
		"empty buckets": {shards: make([][]rdd.Pair, 4)},
	} {
		data, err := encodeOutput([]byte("prefix"), tc.flat, tc.shards)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flat, shards, err := decodeOutput(data[len("prefix"):])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (shards == nil) != (tc.shards == nil) || len(flat) != len(tc.flat) || len(shards) != len(tc.shards) {
			t.Fatalf("%s: decoded to the wrong shape: %d flat, %d shards", name, len(flat), len(shards))
		}
		if len(tc.flat) > 0 && !reflect.DeepEqual(flat, tc.flat) {
			t.Fatalf("%s: flat records diverge", name)
		}
		for i := range shards {
			if len(shards[i]) != len(tc.shards[i]) || (len(shards[i]) > 0 && !reflect.DeepEqual(shards[i], tc.shards[i])) {
				t.Fatalf("%s: shard %d diverges", name, i)
			}
		}
	}
}

// balanced checks the accountant against what the store holds.
func balanced(t *testing.T, s *SpillStore) {
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

// TestDamagedSpillFileFailsItsReadsOnly damages one output's spill file —
// truncated, emptied, one bit flipped in the header, in a record, in the
// checksum — and checks the reads of that output fail with ErrCorrupt
// while the store stays usable and its accounting balanced.
func TestDamagedSpillFileFailsItsReadsOnly(t *testing.T) {
	flip := func(at func(n int) int) func([]byte) []byte {
		return func(b []byte) []byte { b[at(len(b))] ^= 0x10; return b }
	}
	damages := map[string]func([]byte) []byte{
		"truncated":         func(b []byte) []byte { return b[:len(b)/2] },
		"one byte short":    func(b []byte) []byte { return b[:len(b)-1] },
		"emptied":           func(b []byte) []byte { return nil },
		"header bit":        flip(func(int) int { return 0 }),
		"shard count bit":   flip(func(int) int { return 1 }),
		"record bit":        flip(func(n int) int { return n / 2 }),
		"checksum bit":      flip(func(n int) int { return n - 1 }),
		"bytes appended":    func(b []byte) []byte { return append(b, 0, 0) },
		"another's content": func(b []byte) []byte { return []byte("not a spill file at all") },
	}
	for name, damage := range damages {
		for _, bucketed := range []bool{false, true} {
			s, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			victim, other := Key{Shuffle: 1, MapPart: 0}, Key{Shuffle: 1, MapPart: 1}
			out := Output{Records: records(40, "v")}
			if bucketed {
				shards, _ := modBucket(4)(out.Records)
				out = Output{Shards: shards}
			}
			if _, _, err := s.Put(victim, out); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Put(other, Output{Records: records(40, "o")}); err != nil {
				t.Fatal(err) // evicts victim: the budget holds one output at most
			}
			files, _ := filepath.Glob(filepath.Join(s.Dir(), "block-*"))
			if len(files) != 1 {
				t.Fatalf("%s: %d spill files, want the victim's", name, len(files))
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], damage(data), 0o600); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 2; i++ { // the failure is stable, not a one-off
				if _, err := s.Get(victim); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s bucketed=%v: Get err = %v, want ErrCorrupt", name, bucketed, err)
				}
				if _, err := s.Shards(victim, modBucket(4)); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s bucketed=%v: Shards err = %v, want ErrCorrupt", name, bucketed, err)
				}
			}
			balanced(t, s)
			if st := s.Accountant().Stats(); st.ReloadEvents != 0 {
				t.Fatalf("%s: a failed reload was accounted: %+v", name, st)
			}

			// The store still serves, stores, spills and reloads.
			if got, err := s.Get(other); err != nil || !reflect.DeepEqual(got, records(40, "o")) {
				t.Fatalf("%s: undamaged output unreadable: %v", name, err)
			}
			third := Key{Shuffle: 1, MapPart: 2}
			if _, _, err := s.Put(third, Output{Records: records(40, "t")}); err != nil {
				t.Fatalf("%s: Put after a corrupt read: %v", name, err)
			}
			if got, err := s.Get(other); err != nil || !reflect.DeepEqual(got, records(40, "o")) {
				t.Fatalf("%s: reload after a corrupt read: %v", name, err)
			}
			balanced(t, s)
			// A fresh Put replaces the damaged output and heals the key.
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
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

type opaque struct{}

func (opaque) SizeBytes() float64 { return 8 }

// TestSpillRejectsUnencodableOutputBeforeWriting: an output holding a value
// the record codec cannot carry fails its spill with the typed error and
// leaves no file; the output stays resident and readable.
func TestSpillRejectsUnencodableOutputBeforeWriting(t *testing.T) {
	s, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []rdd.Pair{rdd.KV("fine", 1), rdd.KV("bad", opaque{})}
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
