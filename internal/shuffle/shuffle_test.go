package shuffle

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

func intSum(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }

func newHashShuffle(t *testing.T, numMaps, numReduces int) (*Registry, *rdd.ShuffleSpec) {
	t.Helper()
	reg := NewRegistry()
	spec := &rdd.ShuffleSpec{ID: 1, Partitioner: rdd.NewHashPartitioner(numReduces), Combine: intSum}
	reg.Register(spec, numMaps)
	return reg, spec
}

func TestRegisterIdempotent(t *testing.T) {
	reg, spec := newHashShuffle(t, 2, 2)
	reg.AddMapOutput(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 100)
	reg.Register(spec, 2) // must not wipe outputs
	if missing := reg.Missing(1); len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("re-Register left missing %v, want [1]", missing)
	}
	reg.AddMapOutput(1, 1, 0, []rdd.Pair{rdd.KV("b", 2)}, 100)
	if len(reg.Missing(1)) != 0 {
		t.Fatal("re-Register cleared outputs")
	}
}

func TestCompleteAndFinalize(t *testing.T) {
	reg, _ := newHashShuffle(t, 2, 2)
	reg.AddMapOutput(1, 0, 0, []rdd.Pair{rdd.KV("a", 1), rdd.KV("b", 2)}, 100)
	if missing := reg.Missing(1); len(missing) != 1 {
		t.Fatalf("Missing = %v with 1/2 outputs", missing)
	}
	reg.AddMapOutput(1, 1, 3, []rdd.Pair{rdd.KV("a", 5)}, 60)
	if missing := reg.Missing(1); len(missing) != 0 {
		t.Fatalf("Missing = %v with 2/2 outputs", missing)
	}
	reg.Finalize(1)
	reg.Finalize(1) // idempotent

	// Each reducer gets one shard per map partition.
	total := 0
	for r := 0; r < 2; r++ {
		shards := reg.Shards(1, r)
		if len(shards) != 2 {
			t.Fatalf("reducer %d got %d shards, want 2", r, len(shards))
		}
		for _, s := range shards {
			total += len(s.Records)
		}
	}
	if total != 3 {
		t.Fatalf("shards carry %d records, want 3", total)
	}
}

func TestFinalizeBeforeCompletePanics(t *testing.T) {
	reg, _ := newHashShuffle(t, 2, 2)
	reg.AddMapOutput(1, 0, 0, nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reg.Finalize(1)
}

func TestShardModeledBytesProportional(t *testing.T) {
	reg, _ := newHashShuffle(t, 1, 2)
	// Two keys hashing (whichever way) with equal record sizes: the
	// modeled bytes must split proportionally to real shard bytes and sum
	// to the partition's modeled size.
	recs := []rdd.Pair{rdd.KV("aa", 1), rdd.KV("bb", 1), rdd.KV("cc", 1), rdd.KV("dd", 1)}
	reg.AddMapOutput(1, 0, 0, recs, 1000)
	reg.Finalize(1)
	var sum float64
	for r := 0; r < 2; r++ {
		for _, s := range reg.Shards(1, r) {
			sum += s.ModeledBytes
			wantFrac := rdd.SizeOfAll(s.Records) / rdd.SizeOfAll(recs)
			if math.Abs(s.ModeledBytes-wantFrac*1000) > 1e-9 {
				t.Fatalf("shard modeled %v, want %v", s.ModeledBytes, wantFrac*1000)
			}
		}
	}
	if math.Abs(sum-1000) > 1e-9 {
		t.Fatalf("shard modeled bytes sum to %v, want 1000", sum)
	}
}

// A cogroup side's shards split the output's modeled bytes by
// rdd.ShuffledSize, one byte more per record than SizeOfAll: two 21-byte
// records against one 42-byte record split 44:43, not evenly, and the
// shards still sum to the output.
func TestCoGroupSideShardsCountTheSideByte(t *testing.T) {
	reg := NewRegistry()
	part := rdd.NewRangePartitioner(2)
	part.Prepare([]string{"m"})
	spec := &rdd.ShuffleSpec{ID: 1, Partitioner: part, SortKeys: true, CoGroupSide: true}
	reg.Register(spec, 1)
	recs := []rdd.Pair{rdd.KV("a", "xxxx"), rdd.KV("z", strings.Repeat("y", 25)), rdd.KV("b", "xxxx")}
	if got := rdd.ShuffledSize(spec, recs); got != 87 {
		t.Fatalf("ShuffledSize = %v, want 84 record bytes + 3 side bytes", got)
	}
	reg.AddMapOutput(1, 0, 0, recs, 870)
	reg.Finalize(1)
	var sum float64
	for r, want := range []float64{440, 430} {
		got := reg.Shards(1, r)[0].ModeledBytes
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("shard %d modeled %v B, want %v", r, got, want)
		}
		sum += got
	}
	if math.Abs(sum-870) > 1e-9 {
		t.Errorf("shard modeled bytes sum to %v, want 870", sum)
	}
}

func TestReducerHostBytes(t *testing.T) {
	reg := NewRegistry()
	spec := &rdd.ShuffleSpec{ID: 9, Partitioner: rdd.NewHashPartitioner(1)}
	reg.Register(spec, 3)
	reg.AddMapOutput(9, 0, 0, []rdd.Pair{rdd.KV("x", "1234")}, 400)
	reg.AddMapOutput(9, 1, 0, []rdd.Pair{rdd.KV("y", "12")}, 100)
	reg.AddMapOutput(9, 2, 5, []rdd.Pair{rdd.KV("z", "1")}, 200)
	reg.Finalize(9)
	hb := reg.ReducerHostBytes(9, 0)
	if math.Abs(hb[0]-500) > 1e-9 || math.Abs(hb[5]-200) > 1e-9 {
		t.Fatalf("ReducerHostBytes = %v", hb)
	}
}

func TestRangeShuffleSamplesAtFinalize(t *testing.T) {
	reg := NewRegistry()
	part := rdd.NewRangePartitioner(3)
	spec := &rdd.ShuffleSpec{ID: 2, Partitioner: part, SortKeys: true}
	reg.Register(spec, 2)
	var a, b []rdd.Pair
	for i := 0; i < 100; i++ {
		a = append(a, rdd.KV(fmt.Sprintf("%04d", i), nil))
		b = append(b, rdd.KV(fmt.Sprintf("%04d", i+100), nil))
	}
	reg.AddMapOutput(2, 0, 0, a, 100)
	reg.AddMapOutput(2, 1, 1, b, 100)
	if part.Ready() {
		t.Fatal("partitioner prepared before finalize")
	}
	reg.Finalize(2)
	if !part.Ready() {
		t.Fatal("partitioner not prepared at finalize")
	}
	// Reduce partitions must respect global order: every key in shard i is
	// <= every key in shard i+1.
	var prevMax string
	for r := 0; r < 3; r++ {
		var all []rdd.Pair
		for _, s := range reg.Shards(2, r) {
			all = append(all, s.Records...)
		}
		agg := rdd.ReduceAggregate(spec, all)
		if len(agg) == 0 {
			continue
		}
		if agg[0].Key < prevMax {
			t.Fatalf("shard %d min %q < previous shard max %q", r, agg[0].Key, prevMax)
		}
		prevMax = agg[len(agg)-1].Key
	}
}

func TestUnknownShufflePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reg.Missing(99)
}

func TestBadMapPartPanics(t *testing.T) {
	reg, _ := newHashShuffle(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reg.AddMapOutput(1, 5, 0, nil, 0)
}

// The paper's Sec. III-B placement analysis (Eqs. 1–2), kept as the
// reference the property below checks: with shuffle input of total size S
// spread over datacenters as s_1 ≥ s_2 ≥ … ≥ s_M and N equal shards per
// partition, a reducer placed in datacenter i fetches (S − s_i)/N across
// datacenters, so total cross-DC shuffle traffic is minimized — at
// S − max_i s_i — by aggregating all reducers into the datacenter holding
// the largest input share. Both backends choose through
// plan.ChooseAggregator, whose AggregatorBest head is this choice.

// TrafficIfAggregatedTo returns the cross-datacenter bytes a shuffle moves
// if every reducer runs in datacenter dc, given the shuffle input bytes
// stored per datacenter (Eq. 1 summed over reducers).
func TrafficIfAggregatedTo(sizesByDC []float64, dc int) float64 {
	var total float64
	for _, s := range sizesByDC {
		total += s
	}
	return total - sizesByDC[dc]
}

// BestAggregator returns the datacenter minimizing cross-DC shuffle traffic
// (Eq. 2: the one storing the largest input share; lowest index wins ties)
// along with the resulting traffic S − s₁.
func BestAggregator(sizesByDC []float64) (dc int, traffic float64) {
	if len(sizesByDC) == 0 {
		return 0, 0
	}
	best := 0
	for i, s := range sizesByDC {
		if s > sizesByDC[best] {
			best = i
		}
	}
	return best, TrafficIfAggregatedTo(sizesByDC, best)
}

func TestBestAggregatorMatchesEq2(t *testing.T) {
	sizes := []float64{100, 400, 250}
	dc, traffic := BestAggregator(sizes)
	if dc != 1 {
		t.Fatalf("BestAggregator picked DC %d, want 1", dc)
	}
	if traffic != 350 {
		t.Fatalf("traffic = %v, want S - s1 = 350", traffic)
	}
	if got := TrafficIfAggregatedTo(sizes, 0); got != 650 {
		t.Fatalf("TrafficIfAggregatedTo(0) = %v, want 650", got)
	}
	if dc, traffic := BestAggregator(nil); dc != 0 || traffic != 0 {
		t.Fatal("empty input not handled")
	}
}

// Property (Eq. 2): for random distributions, no aggregation choice beats
// the largest-share datacenter.
func TestQuickBestAggregatorOptimal(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = rng.Float64() * 1000
		}
		_, best := BestAggregator(sizes)
		for i := range sizes {
			if TrafficIfAggregatedTo(sizes, i) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sharding conserves modeled bytes and records for random map
// outputs.
func TestQuickFinalizeConservation(t *testing.T) {
	f := func(seed int64, mapsRaw, reducesRaw uint8) bool {
		numMaps := int(mapsRaw%5) + 1
		numReduces := int(reducesRaw%7) + 1
		reg := NewRegistry()
		spec := &rdd.ShuffleSpec{ID: 3, Partitioner: rdd.NewHashPartitioner(numReduces)}
		reg.Register(spec, numMaps)
		rng := rand.New(rand.NewSource(seed))
		wantRecords := 0
		var wantModeled float64
		for m := 0; m < numMaps; m++ {
			var recs []rdd.Pair
			for i := 0; i < rng.Intn(40); i++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("k%d", rng.Intn(100)), rng.Intn(10)))
			}
			modeled := float64(rng.Intn(1000))
			if len(recs) == 0 {
				modeled = 0
			}
			reg.AddMapOutput(3, m, topology.HostID(rng.Intn(4)), recs, modeled)
			wantRecords += len(recs)
			wantModeled += modeled
		}
		reg.Finalize(3)
		gotRecords := 0
		var gotModeled float64
		for r := 0; r < numReduces; r++ {
			for _, s := range reg.Shards(3, r) {
				gotRecords += len(s.Records)
				gotModeled += s.ModeledBytes
			}
		}
		return gotRecords == wantRecords && math.Abs(gotModeled-wantModeled) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
