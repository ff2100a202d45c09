package blockstore

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"wanshuffle/internal/rdd"
)

// records builds n distinct pairs tagged with a generation marker.
func records(n int, gen string) []rdd.Pair {
	out := make([]rdd.Pair, n)
	for i := range out {
		out[i] = rdd.KV(fmt.Sprintf("k%03d", i), gen)
	}
	return out
}

// modBucket buckets by the numeric suffix of the key, mod parts.
func modBucket(parts int) BucketFunc {
	return func(recs []rdd.Pair) ([][]rdd.Pair, error) {
		shards := make([][]rdd.Pair, parts)
		for _, r := range recs {
			var i int
			fmt.Sscanf(r.Key, "k%d", &i)
			shards[i%parts] = append(shards[i%parts], r)
		}
		return shards, nil
	}
}

// stores builds the store under both of its configurations: no budget
// (fully resident) and a budget of one record, under which every output
// but the one in use lives on disk — so each test below also checks that
// spilling never changes what a caller reads.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	budget := int64(rdd.SizeOfAll(records(1, "a")))
	spill, err := NewSpillStore(SpillConfig{MemoryBudget: budget, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = spill.Close() })
	return map[string]Store{"no budget": NewMemStore(nil), "1-record budget": spill}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Shuffle: 7, MapPart: 3}
			if _, err := s.Get(key); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get before Put: err = %v, want ErrNotFound", err)
			}
			recs := records(10, "a")
			stored, dup, err := s.Put(key, Output{Attempt: 1, Records: recs})
			if err != nil || !stored || dup {
				t.Fatalf("Put = (%v, %v, %v), want (true, false, nil)", stored, dup, err)
			}
			got, err := s.Get(key)
			if err != nil || !reflect.DeepEqual(got, recs) {
				t.Fatalf("Get = (%v, %v), want stored records", got, err)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
		})
	}
}

func TestLastWriteWinsByAttempt(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Shuffle: 1, MapPart: 0}
			if _, _, err := s.Put(key, Output{Attempt: 2, Records: records(5, "new")}); err != nil {
				t.Fatal(err)
			}
			// An older attempt must not clobber the newer output.
			stored, dup, err := s.Put(key, Output{Attempt: 1, Records: records(5, "old")})
			if err != nil || stored || !dup {
				t.Fatalf("stale Put = (%v, %v, %v), want (false, true, nil)", stored, dup, err)
			}
			got, _ := s.Get(key)
			if got[0].Value != "new" {
				t.Fatalf("stale attempt clobbered the newer output: %v", got[0])
			}
			// A newer attempt replaces and reports the duplicate.
			stored, dup, err = s.Put(key, Output{Attempt: 3, Records: records(5, "newer")})
			if err != nil || !stored || !dup {
				t.Fatalf("newer Put = (%v, %v, %v), want (true, true, nil)", stored, dup, err)
			}
			got, _ = s.Get(key)
			if got[0].Value != "newer" {
				t.Fatalf("newer attempt did not replace: %v", got[0])
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
		})
	}
}

func TestShardsBucketExactlyOnce(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Shuffle: 2, MapPart: 1}
			recs := records(12, "x")
			if _, _, err := s.Put(key, Output{Records: recs}); err != nil {
				t.Fatal(err)
			}
			calls := 0
			bucket := func(in []rdd.Pair) ([][]rdd.Pair, error) {
				calls++
				return modBucket(3)(in)
			}
			for i := 0; i < 4; i++ {
				shards, err := s.Shards(key, bucket)
				if err != nil {
					t.Fatal(err)
				}
				if len(shards) != 3 {
					t.Fatalf("got %d shards, want 3", len(shards))
				}
			}
			if calls != 1 {
				t.Fatalf("bucket ran %d times, want exactly once", calls)
			}
			// The flat view survives bucketing (flattened in shard order).
			flat, err := s.Get(key)
			if err != nil || len(flat) != len(recs) {
				t.Fatalf("Get after bucketing = (%d records, %v), want %d", len(flat), err, len(recs))
			}
			// A pre-bucketed Put never invokes bucket.
			key2 := Key{Shuffle: 2, MapPart: 2}
			shards, _ := modBucket(3)(records(6, "y"))
			if _, _, err := s.Put(key2, Output{Shards: shards}); err != nil {
				t.Fatal(err)
			}
			got, err := s.Shards(key2, func([]rdd.Pair) ([][]rdd.Pair, error) {
				t.Fatal("bucket called for a pre-bucketed output")
				return nil, nil
			})
			if err != nil || !reflect.DeepEqual(got, shards) {
				t.Fatalf("Shards(prebucketed) = (%v, %v)", got, err)
			}
		})
	}
}

func TestBucketErrorPropagates(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Shuffle: 3, MapPart: 0}
			if _, _, err := s.Put(key, Output{Records: records(4, "e")}); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("partitioner not ready")
			if _, err := s.Shards(key, func([]rdd.Pair) ([][]rdd.Pair, error) { return nil, boom }); !errors.Is(err, boom) {
				t.Fatalf("Shards error = %v, want %v", err, boom)
			}
			// The output stays flat and buckets fine later.
			shards, err := s.Shards(key, modBucket(2))
			if err != nil || len(shards) != 2 {
				t.Fatalf("Shards after failed bucket = (%v, %v)", shards, err)
			}
		})
	}
}

func TestReset(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for sh := 0; sh < 2; sh++ {
				for m := 0; m < 3; m++ {
					if _, _, err := s.Put(Key{Shuffle: sh, MapPart: m}, Output{Records: records(4, "d")}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if s.Len() != 6 {
				t.Fatalf("Len = %d, want 6", s.Len())
			}
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 0 {
				t.Fatalf("Len after Reset = %d, want 0", s.Len())
			}
			if _, err := s.Get(Key{Shuffle: 1, MapPart: 0}); !errors.Is(err, ErrNotFound) {
				t.Fatalf("output still readable after Reset: %v", err)
			}
			st := s.Accountant().Stats()
			if st.ResidentBytes != 0 || st.ResidentOutputs != 0 || st.SpilledBytes != 0 || st.SpilledOutputs != 0 {
				t.Fatalf("accounting not zero after Reset: %+v", st)
			}
		})
	}
}

func TestAccountantTracksResidentBytes(t *testing.T) {
	s := NewMemStore(nil)
	recs := records(8, "a")
	want := int64(rdd.SizeOfAll(recs))
	_, _, _ = s.Put(Key{Shuffle: 0, MapPart: 0}, Output{Records: recs})
	if got := s.Accountant().Stats().ResidentBytes; got != want {
		t.Fatalf("ResidentBytes = %d, want %d", got, want)
	}
	// Replacing with a newer attempt re-measures instead of accumulating.
	bigger := records(16, "b")
	_, _, _ = s.Put(Key{Shuffle: 0, MapPart: 0}, Output{Attempt: 1, Records: bigger})
	if got, want := s.Accountant().Stats().ResidentBytes, int64(rdd.SizeOfAll(bigger)); got != want {
		t.Fatalf("ResidentBytes after replace = %d, want %d", got, want)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if got := s.Accountant().Stats().ResidentBytes; got != 0 {
		t.Fatalf("ResidentBytes after Reset = %d, want 0", got)
	}
}

func TestSpillStoreSpillsAndReloads(t *testing.T) {
	dir := t.TempDir()
	// Budget fits roughly one of the three outputs, forcing spills.
	one := int64(rdd.SizeOfAll(records(32, "g0")))
	s, err := NewSpillStore(SpillConfig{MemoryBudget: one + one/2, Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for m := 0; m < 3; m++ {
		if _, _, err := s.Put(Key{Shuffle: 0, MapPart: m}, Output{Records: records(32, fmt.Sprintf("g%d", m))}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Accountant().Stats()
	if st.SpillEvents == 0 || st.SpilledOutputs == 0 {
		t.Fatalf("no spills under a tiny budget: %+v", st)
	}
	if st.ResidentBytes > s.cfg.MemoryBudget {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, s.cfg.MemoryBudget)
	}
	if glob, _ := os.ReadDir(s.Dir()); len(glob) != st.SpilledOutputs {
		t.Fatalf("%d spill files on disk, accountant says %d", len(glob), st.SpilledOutputs)
	}

	// Every output reads back intact, flat and bucketed, spilled or not.
	for m := 0; m < 3; m++ {
		got, err := s.Get(Key{Shuffle: 0, MapPart: m})
		if err != nil {
			t.Fatalf("Get map %d: %v", m, err)
		}
		if want := records(32, fmt.Sprintf("g%d", m)); !reflect.DeepEqual(got, want) {
			t.Fatalf("map %d reloaded records diverge", m)
		}
		shards, err := s.Shards(Key{Shuffle: 0, MapPart: m}, modBucket(4))
		if err != nil || len(shards) != 4 {
			t.Fatalf("Shards map %d = (%v, %v)", m, shards, err)
		}
	}
	st = s.Accountant().Stats()
	if st.ReloadEvents == 0 || st.ReloadBytesTotal == 0 {
		t.Fatalf("reads of spilled outputs recorded no reloads: %+v", st)
	}
	if st.SpilledBytesTotal < st.ReloadBytesTotal {
		t.Fatalf("reloaded more than was ever spilled: %+v", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Dir()); !os.IsNotExist(err) {
		t.Fatalf("spill dir survives Close: %v", err)
	}
}

func TestBudgetedStoreMatchesResident(t *testing.T) {
	// Same operation sequence with and without a budget, spilling
	// aggressively, must read identically.
	spill, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	mem := NewMemStore(nil)

	for m := 0; m < 5; m++ {
		out := Output{Attempt: m % 2, Records: records(10+m, fmt.Sprintf("m%d", m))}
		if _, _, err := mem.Put(Key{MapPart: m}, out); err != nil {
			t.Fatal(err)
		}
		if _, _, err := spill.Put(Key{MapPart: m}, out); err != nil {
			t.Fatal(err)
		}
	}
	if spill.Accountant().Stats().SpillEvents == 0 {
		t.Fatal("budget 1 produced no spills")
	}
	for m := 0; m < 5; m++ {
		wantFlat, err1 := mem.Get(Key{MapPart: m})
		gotFlat, err2 := spill.Get(Key{MapPart: m})
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gotFlat, wantFlat) {
			t.Fatalf("map %d flat views diverge (%v, %v)", m, err1, err2)
		}
		want, err1 := mem.Shards(Key{MapPart: m}, modBucket(3))
		got, err2 := spill.Shards(Key{MapPart: m}, modBucket(3))
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("map %d shards diverge (%v, %v)", m, err1, err2)
		}
	}
}

func TestResidentStoreHasNoSpillDir(t *testing.T) {
	s := NewMemStore(nil)
	if s.Dir() != "" {
		t.Fatalf("store without a budget has spill dir %q", s.Dir())
	}
	for m := 0; m < 3; m++ {
		if _, _, err := s.Put(Key{MapPart: m}, Output{Records: records(64, "r")}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Accountant().Stats(); st.SpillEvents != 0 || st.ResidentOutputs != 3 {
		t.Fatalf("store without a budget spilled: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSpillStoreRejectsNonPositiveBudget(t *testing.T) {
	for _, budget := range []int64{0, -5} {
		if _, err := NewSpillStore(SpillConfig{MemoryBudget: budget}, nil); err == nil {
			t.Fatalf("budget %d accepted", budget)
		}
	}
}
