package bench

import (
	"fmt"
	"testing"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/rdd"
)

// blockstoreWorkload builds one map output's worth of prepared records and
// a bucketing function over reduceParts hash partitions — the shape the
// live workers push through their stores.
func blockstoreWorkload(records, reduceParts int) ([]rdd.Pair, blockstore.BucketFunc) {
	recs := make([]rdd.Pair, records)
	for i := range recs {
		recs[i] = rdd.KV(fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%04d", i%977))
	}
	spec := &rdd.ShuffleSpec{Partitioner: rdd.NewHashPartitioner(reduceParts)}
	bucket := func(rs []rdd.Pair) ([][]rdd.Pair, error) {
		return rdd.BucketRecords(spec, rs), nil
	}
	return recs, bucket
}

// runStoreCycle drives one full storage cycle through the store: put
// `outputs` map outputs, then read one shard per (reduce, map) in reducer
// order, the way plan.Task.Gather does — the bucketing (and, for a spill
// store under pressure, the spill + per-shard reload) hot path of a shuffle.
func runStoreCycle(b *testing.B, store blockstore.Store, recs []rdd.Pair, bucket blockstore.BucketFunc, outputs, reduceParts int) {
	b.Helper()
	for m := 0; m < outputs; m++ {
		key := blockstore.Key{Shuffle: 1, MapPart: m}
		if _, _, err := store.Put(key, blockstore.Output{Records: recs}); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < reduceParts; r++ {
		for m := 0; m < outputs; m++ {
			if _, err := store.Shard(blockstore.Key{Shuffle: 1, MapPart: m}, r, bucket); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := store.Reset(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBlockStoreResident measures the bucketing hot path with every
// output resident in memory (records/sec across one put+shard-read cycle).
func BenchmarkBlockStoreResident(b *testing.B) {
	const outputs, records, reduceParts = 8, 4096, 8
	recs, bucket := blockstoreWorkload(records, reduceParts)
	store := blockstore.NewMemStore(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStoreCycle(b, store, recs, bucket, outputs, reduceParts)
	}
	b.ReportMetric(float64(outputs*records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkBlockStoreSpill measures the same cycle with the memory budget
// squeezed so every output but the last spills and each shard is read off
// disk — the record-codec encode/decode + file I/O cost stacked on top of
// bucketing.
func BenchmarkBlockStoreSpill(b *testing.B) {
	const outputs, records, reduceParts = 8, 4096, 8
	recs, bucket := blockstoreWorkload(records, reduceParts)
	store, err := blockstore.NewSpillStore(blockstore.SpillConfig{
		// Roughly one output resident at a time: every read of another
		// output is a read from disk.
		MemoryBudget: int64(rdd.SizeOfAll(recs)) + 1,
		Dir:          b.TempDir(),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStoreCycle(b, store, recs, bucket, outputs, reduceParts)
	}
	b.StopTimer()
	stats := store.Accountant().Stats()
	if stats.SpillEvents == 0 {
		b.Fatal("spill benchmark never spilled")
	}
	b.ReportMetric(float64(outputs*records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(stats.SpillEvents)/float64(b.N), "spills/op")
	b.ReportMetric(float64(stats.ReloadEvents)/float64(b.N), "reloads/op")
}
