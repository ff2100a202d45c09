package livecluster

import (
	"os"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// TestParityWithForcedSpill reruns the sim≡live≡reference parity property
// with the workers' block stores squeezed under a 1 KiB memory budget, so
// nearly every map output round-trips through disk. Outputs must still
// match the in-memory reference exactly, spills must actually have
// happened, and the byte-conservation invariants (matrix total equals
// BytesOverTCP, raw never below wire) must hold unchanged.
func TestParityWithForcedSpill(t *testing.T) {
	topo := topology.SixRegionEC2()
	for _, mode := range []Mode{ModeFetch, ModePush} {
		var reloads int64
		// Seeds whose lineages move enough shuffle data to overflow the
		// budget in both modes (small lineages legitimately fit in 1 KiB).
		for _, seed := range []int64{2, 16, 22} {
			want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())))

			dir := t.TempDir()
			cluster, err := New(Config{
				Workers: 4, Mode: mode,
				MemoryBudget: 1 << 10, SpillDir: dir,
			})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			out, stats, err := cluster.Run(rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers()))
			storage := cluster.StorageStats()
			cluster.Close()
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			if canon(out) != want {
				t.Fatalf("seed %d %v: spilled run diverges from in-memory reference", seed, mode)
			}

			// The budget is small enough that spills must have occurred, or
			// this test is not exercising the reload path at all.
			if storage.SpillEvents == 0 {
				t.Fatalf("seed %d %v: no spill events under a 1 KiB budget", seed, mode)
			}
			if storage.SpilledBytesTotal <= 0 {
				t.Fatalf("seed %d %v: spill accounting empty: %+v", seed, mode, storage)
			}
			// A spilled block only reloads if something reads it afterwards;
			// require that across the seeds, not per run.
			reloads += storage.ReloadBytesTotal
			if got := stats.Storage(); got.SpillEvents != storage.SpillEvents {
				t.Fatalf("seed %d %v: Stats.Storage() (%d spills) disagrees with cluster (%d)",
					seed, mode, got.SpillEvents, storage.SpillEvents)
			}
			// The accountant's spill counters mirror into the run's metrics
			// registry as blockstore_* series.
			var metricSpills float64
			for _, mp := range stats.Events.Registry().Snapshot() {
				if mp.Name == "blockstore_spill_events_total" {
					metricSpills += mp.Value
				}
			}
			if int64(metricSpills) != storage.SpillEvents {
				t.Fatalf("seed %d %v: blockstore_spill_events_total = %v, accountant says %d",
					seed, mode, metricSpills, storage.SpillEvents)
			}

			// Byte conservation survives the storage change: every wire byte
			// lands in exactly one matrix cell, and compression can only
			// shrink the wire relative to raw.
			var matrixTotal int64
			for _, row := range stats.TrafficMatrix {
				for _, v := range row {
					matrixTotal += v
				}
			}
			if matrixTotal != stats.BytesOverTCP {
				t.Fatalf("seed %d %v: matrix total %d != BytesOverTCP %d",
					seed, mode, matrixTotal, stats.BytesOverTCP)
			}
			if stats.BytesRaw < stats.BytesOverTCP {
				t.Fatalf("seed %d %v: BytesRaw %d < BytesOverTCP %d",
					seed, mode, stats.BytesRaw, stats.BytesOverTCP)
			}

			// Close removed every worker's spill directory.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, mode, err)
			}
			if len(entries) != 0 {
				t.Fatalf("seed %d %v: spill dirs left behind after Close: %v", seed, mode, entries)
			}
		}
		if reloads == 0 {
			t.Fatalf("%v: no spilled block was ever reloaded across the seeds", mode)
		}
	}
}

// TestRunReportCarriesStorageSection checks a budgeted live run's JSON
// report includes the storage section with the spill totals, and an
// unbudgeted one reports zero activity (the section still appears on live
// runs; the simulator's reports omit it).
func TestRunReportCarriesStorageSection(t *testing.T) {
	topo := topology.SixRegionEC2()
	for _, tc := range []struct {
		name   string
		budget int64
		spills bool
	}{
		{"budgeted", 1 << 10, true},
		{"unlimited", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, err := New(Config{Workers: 4, Mode: ModePush, MemoryBudget: tc.budget, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			_, stats, err := cluster.Run(rdd.RandomLineage(5, rdd.NewGraph(), topo.Workers()))
			if err != nil {
				t.Fatal(err)
			}
			rep := stats.RunReport("random", &trace.SyncRecorder{})
			if rep.Storage == nil {
				t.Fatal("live run report is missing the storage section")
			}
			if gotSpills := rep.Storage.SpillEvents > 0; gotSpills != tc.spills {
				t.Fatalf("report storage %+v, want spills=%v", rep.Storage, tc.spills)
			}
		})
	}
}
