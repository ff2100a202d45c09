package livecluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// checksumStore records, at each Put, the record-codec encoding of the
// output it stores, so that verify can prove at job end that nothing wrote
// to a stored shard after it was handed over: not a reducer reading it in
// place, not a push's decoded chunks, not a spill reload.
type checksumStore struct {
	blockstore.Store
	mu   sync.Mutex
	puts map[blockstore.Key]encodedOutput
}

// encodedOutput is a stored output's encoding as Put received it: one
// payload per shard, or one for the records of a flat output.
type encodedOutput struct {
	attempt  int
	flat     bool
	payloads [][]byte
}

func newChecksumStore(s blockstore.Store) *checksumStore {
	return &checksumStore{Store: s, puts: map[blockstore.Key]encodedOutput{}}
}

func (s *checksumStore) Put(key blockstore.Key, out blockstore.Output) (stored, dup bool, err error) {
	enc := encodedOutput{attempt: out.Attempt, flat: out.Shards == nil}
	runs := out.Shards
	if enc.flat {
		runs = [][]rdd.Pair{out.Records}
	}
	for _, run := range runs {
		payload, err := rdd.AppendPairs(nil, run)
		if err != nil {
			return false, false, err
		}
		enc.payloads = append(enc.payloads, payload)
	}
	stored, dup, err = s.Store.Put(key, out)
	if stored {
		s.mu.Lock()
		if old, ok := s.puts[key]; !ok || old.attempt <= out.Attempt {
			s.puts[key] = enc
		}
		s.mu.Unlock()
	}
	return stored, dup, err
}

func (s *checksumStore) Reset() error {
	s.mu.Lock()
	clear(s.puts)
	s.mu.Unlock()
	return s.Store.Reset()
}

// verify re-reads every shard of every output w's store holds, through the
// shuffles run knows, and requires its encoding to be the one recorded at
// Put; a flat output's shards are its recorded records bucketed afresh. It
// returns how many outputs it checked.
func (s *checksumStore) verify(t *testing.T, w *worker, run *liveRun) int {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.Store.Len(); n != len(s.puts) {
		t.Fatalf("worker %d stores %d outputs, %d went through Put", w.id, n, len(s.puts))
	}
	for key, enc := range s.puts {
		sh := run.shuffles[key.Shuffle]
		want := enc.payloads
		if enc.flat {
			recs, err := rdd.DecodePairs(bytes.Clone(enc.payloads[0]))
			if err != nil {
				t.Fatal(err)
			}
			want = nil
			for _, shard := range rdd.BucketRecords(sh.spec, recs) {
				payload, err := rdd.AppendPairs(nil, shard)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, payload)
			}
		}
		for reduce, payload := range want {
			shard, err := w.shardOf(sh, key.MapPart, reduce)
			if err != nil {
				t.Fatalf("worker %d: %v", w.id, err)
			}
			got, err := rdd.AppendPairs(nil, shard)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("worker %d: %v reduce %d is not what was stored (%v)", w.id, key, reduce, err)
			}
		}
	}
	return len(s.puts)
}

// TestNothingWritesAStoredShard runs the sim≡live property lineages on
// checksumming stores, fetched and pushed, resident and under a forced spill, and
// requires every shard every worker stored to read back at job end as it
// was put.
func TestNothingWritesAStoredShard(t *testing.T) {
	hosts := topology.SixRegionEC2().Workers()
	for _, scheme := range []string{"push", "fetch"} {
		for _, budget := range []int64{0, 1 << 10} {
			t.Run(fmt.Sprintf("%v/budget %d", scheme, budget), func(t *testing.T) {
				for _, seed := range []int64{0, 2, 16, 22} {
					storedShardsHold(t, seed, hosts, scheme, budget)
				}
			})
		}
	}
}

func storedShardsHold(t *testing.T, seed int64, hosts []topology.HostID, scheme string, budget int64) {
	t.Helper()
	want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), hosts)))
	cluster, err := New(Config{Workers: 4, MemoryBudget: budget, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	stores := make([]*checksumStore, len(cluster.workers))
	for i, w := range cluster.workers {
		stores[i] = newChecksumStore(w.store)
		w.store = stores[i]
	}
	target := shuffledAs(scheme, rdd.RandomLineage(seed, rdd.NewGraph(), hosts))
	out, _, err := cluster.Run(target)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if canon(out) != want {
		t.Fatalf("seed %d: output diverges from the reference", seed)
	}
	// The job's run is gone with it: read the stores through a run over the
	// same plan, whose shuffles are the job's own specs.
	job, err := plan.BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	run := newLiveRun(cluster, cluster.newStats(), job.Plan)
	checked := 0
	for i, s := range stores {
		checked += s.verify(t, cluster.workers[i], run)
	}
	if checked == 0 {
		t.Fatalf("seed %d: no worker stored an output", seed)
	}
}
