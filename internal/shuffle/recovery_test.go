package shuffle

import (
	"slices"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// TestInvalidateAndMissing: a lost host's output is dropped from the
// registry's table (DropSite, the old Invalidate) and listed as missing
// until its map task registers it again.
func TestInvalidateAndMissing(t *testing.T) {
	reg, _ := newHashShuffle(t, 3, 2)
	for m := 0; m < 3; m++ {
		reg.AddMapOutput(1, m, topology.HostID(m), []rdd.Pair{rdd.KV("a", 1)}, 10)
	}
	if missing := reg.Missing(1); len(missing) != 0 {
		t.Fatalf("Missing after every output = %v", missing)
	}
	reg.DropSite(1)
	if missing := reg.Missing(1); !slices.Equal(missing, []int{1}) {
		t.Fatalf("Missing = %v, want [1]", missing)
	}
	// Idempotent.
	reg.DropSite(1)
	if missing := reg.Missing(1); !slices.Equal(missing, []int{1}) {
		t.Fatalf("double drop: Missing = %v, want [1]", missing)
	}
	// Re-registering restores completeness.
	reg.AddMapOutput(1, 1, 5, []rdd.Pair{rdd.KV("b", 2)}, 12)
	if missing := reg.Missing(1); len(missing) != 0 {
		t.Fatalf("re-registration left %v missing", missing)
	}
}

// TestOutputsOnSortedAndScoped: dropping a host drops its outputs of every
// shuffle and nothing else, Missing lists them in map order, and a host
// holding nothing drops nothing.
func TestOutputsOnSortedAndScoped(t *testing.T) {
	reg := NewRegistry()
	for _, id := range []int{7, 3} {
		spec := &rdd.ShuffleSpec{ID: id, Partitioner: rdd.NewHashPartitioner(1)}
		reg.Register(spec, 4)
		for m, host := range []topology.HostID{4, 9, 4, 9} {
			reg.AddMapOutput(id, m, host, []rdd.Pair{rdd.KV("a", 1)}, 1)
		}
	}
	reg.DropSite(99)
	for _, id := range []int{7, 3} {
		if missing := reg.Missing(id); len(missing) != 0 {
			t.Fatalf("dropping an empty host: Missing(%d) = %v", id, missing)
		}
	}
	reg.DropSite(4)
	for _, id := range []int{7, 3} {
		if missing := reg.Missing(id); !slices.Equal(missing, []int{0, 2}) {
			t.Fatalf("Missing(%d) = %v, want [0 2]", id, missing)
		}
	}
}

func TestAddAfterFinalizeRefreshesShards(t *testing.T) {
	reg, _ := newHashShuffle(t, 2, 2)
	reg.AddMapOutput(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 10)
	reg.AddMapOutput(1, 1, 1, []rdd.Pair{rdd.KV("b", 2)}, 10)
	reg.Finalize(1)
	before := 0
	for r := 0; r < 2; r++ {
		for _, s := range reg.Shards(1, r) {
			before += len(s.Records)
		}
	}
	// Simulate failure recovery: lose and recompute map output 0 with
	// different records on a new host.
	reg.DropSite(0)
	reg.AddMapOutput(1, 0, 7, []rdd.Pair{rdd.KV("a", 1), rdd.KV("c", 3)}, 14)
	after := 0
	for r := 0; r < 2; r++ {
		for _, s := range reg.Shards(1, r) {
			after += len(s.Records)
			if s.MapPart == 0 && s.Host != 7 {
				t.Fatalf("recovered shard host = %d, want 7", s.Host)
			}
		}
	}
	if after != before+1 {
		t.Fatalf("refreshed shards carry %d records, want %d", after, before+1)
	}
}

func TestShardsPanicOnMissingOutput(t *testing.T) {
	reg, _ := newHashShuffle(t, 1, 1)
	reg.AddMapOutput(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 10)
	reg.Finalize(1)
	reg.DropSite(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing output")
		}
	}()
	reg.Shards(1, 0)
}

func TestReducerHostBytesSkipsMissing(t *testing.T) {
	reg, _ := newHashShuffle(t, 2, 1)
	reg.AddMapOutput(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 10)
	reg.AddMapOutput(1, 1, 1, []rdd.Pair{rdd.KV("b", 1)}, 10)
	reg.Finalize(1)
	reg.DropSite(1)
	hb := reg.ReducerHostBytes(1, 0)
	if _, ok := hb[1]; ok {
		t.Fatalf("missing output still counted: %v", hb)
	}
}
