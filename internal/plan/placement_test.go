package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// fakeLinks is a LinkCostProvider over an explicit pair map; absent
// pairs report ok=false (uniform fallback).
type fakeLinks struct {
	bps map[[2]int]float64
}

func (f fakeLinks) LinkBps(src, dst int) (float64, string, bool) {
	if v, ok := f.bps[[2]int{src, dst}]; ok {
		return v, BandwidthConfigured, true
	}
	return 0, "", false
}

// symmetric builds a bidirectional rate map from (a,b,bps) triples.
func symmetric(links ...[3]float64) fakeLinks {
	m := map[[2]int]float64{}
	for _, l := range links {
		a, b := int(l[0]), int(l[1])
		m[[2]int{a, b}] = l[2]
		m[[2]int{b, a}] = l[2]
	}
	return fakeLinks{bps: m}
}

// TestSpreadTopKEmptyRank is the satellite-1 regression: an empty rank
// used to clamp k up to 1 and index rank[part%1] into a zero-length
// slice. It must return the driver's -1 "no aggregator" sentinel.
func TestSpreadTopKEmptyRank(t *testing.T) {
	for _, part := range []int{0, 1, 7} {
		if got := SpreadTopK([]int(nil), 0, part); got != -1 {
			t.Fatalf("SpreadTopK(nil, 0, %d) = %d, want -1", part, got)
		}
		if got := SpreadTopK([]topology.DCID{}, 3, part); got != -1 {
			t.Fatalf("SpreadTopK([], 3, %d) = %d, want -1", part, got)
		}
	}
	// Non-empty ranks keep the clamping contract.
	if got := SpreadTopK([]int{5, 6}, 0, 3); got != 5 {
		t.Fatalf("k=0 must clamp to 1, got rank %d", got)
	}
}

// TestRankSanitizesDegenerateInputs is the satellite-3 table: NaN,
// ±Inf, and negative input shares must rank as zero bytes, ties must
// break toward the lower site index, and the order must be identical on
// every call — the old extraction loop marked extracted sites with
// -Inf, which collided with degenerate inputs and scrambled ties.
func TestRankSanitizesDegenerateInputs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bySite    []float64
		wantBest  string
		wantWorst string
	}{
		{"plain ties", []float64{5, 5, 5}, "[0 1 2]", "[2 1 0]"},
		{"nan treated as zero", []float64{5, math.NaN(), 5, math.NaN(), 5}, "[0 2 4 1 3]", "[3 1 4 2 0]"},
		{"neg inf collides with old sentinel", []float64{math.Inf(-1), 3, math.Inf(-1), 7}, "[3 1 0 2]", "[2 0 1 3]"},
		{"negative shares rank last", []float64{-10, 2, -3}, "[1 0 2]", "[2 0 1]"},
		{"pos inf treated as zero", []float64{math.Inf(1), 4}, "[1 0]", "[0 1]"},
		{"all degenerate", []float64{math.NaN(), math.Inf(-1), -1}, "[0 1 2]", "[2 1 0]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 25; i++ {
				if got := fmt.Sprint(Rank[int](tc.bySite, AggregatorBest, nil)); got != tc.wantBest {
					t.Fatalf("iteration %d: Rank(best) = %s, want %s", i, got, tc.wantBest)
				}
				if got := fmt.Sprint(Rank[int](tc.bySite, AggregatorWorst, nil)); got != tc.wantWorst {
					t.Fatalf("iteration %d: Rank(worst) = %s, want %s", i, got, tc.wantWorst)
				}
			}
		})
	}
}

func TestParseAggregatorPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AggregatorPolicy
	}{
		{"", AggregatorBest}, {"best", AggregatorBest}, {"Random", AggregatorRandom},
		{"WORST", AggregatorWorst}, {" bandwidth ", AggregatorBandwidth},
	} {
		got, err := ParseAggregatorPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAggregatorPolicy(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
		if tc.in == "" {
			continue
		}
		// String() round-trips back through the parser.
		rt, err := ParseAggregatorPolicy(got.String())
		if err != nil || rt != got {
			t.Errorf("round-trip %v -> %q failed: (%v, %v)", got, got.String(), rt, err)
		}
	}
	if _, err := ParseAggregatorPolicy("fastest"); err == nil {
		t.Error("ParseAggregatorPolicy accepted an unknown policy")
	}
}

// TestEstimateTransferCosts checks the cost model: per-candidate cost is
// the bottleneck (max) source transfer time, unknown pairs fall back to
// the uniform rate, and the candidate's source label names the weakest
// estimate that contributed.
func TestEstimateTransferCosts(t *testing.T) {
	// Sites: 0 holds 45 KB, 1 holds 10 KB, 2 holds 40 KB.
	sizes := []float64{45e3, 10e3, 40e3}
	// Hub topology: 0-1 and 1-2 at 100 Mbps, 0-2 at 1 Mbps.
	links := symmetric(
		[3]float64{0, 1, 100e6},
		[3]float64{1, 2, 100e6},
		[3]float64{0, 2, 1e6},
	)
	costs := EstimateTransferCosts(sizes, links)
	want := []float64{
		40e3 * 8 / 1e6,   // site 0: bottleneck is 2->0 over the slow path
		45e3 * 8 / 100e6, // site 1: bottleneck is 0->1 over the fast path
		45e3 * 8 / 1e6,   // site 2: bottleneck is 0->2 over the slow path
	}
	for i, c := range costs {
		if c.Site != i || math.Abs(c.CostSec-want[i]) > 1e-12 {
			t.Fatalf("cost[%d] = %+v, want CostSec %.6f", i, c, want[i])
		}
		if c.Source != BandwidthConfigured {
			t.Fatalf("cost[%d].Source = %q, want configured", i, c.Source)
		}
	}

	// A pair the provider does not know falls back to the uniform rate,
	// and the candidate's source degrades to the weakest link used.
	partial := fakeLinks{bps: map[[2]int]float64{{0, 1}: 100e6}}
	costs = EstimateTransferCosts([]float64{10e3, 0, 40e3}, partial)
	wantUniform := 40e3 * 8 / DefaultUniformBps
	if math.Abs(costs[1].CostSec-wantUniform) > 1e-12 || costs[1].Source != BandwidthUniform {
		t.Fatalf("mixed-source candidate = %+v, want uniform-dominated cost %.6f", costs[1], wantUniform)
	}

	// A nil provider prices everything uniformly; a candidate with no
	// remote inflow costs zero and carries no source.
	costs = EstimateTransferCosts([]float64{0, 10e3, 0}, nil)
	if costs[1].CostSec != 0 || costs[1].Source != "" {
		t.Fatalf("sole-holder candidate = %+v, want zero cost and empty source", costs[1])
	}
	if costs[0].Source != BandwidthUniform || costs[0].CostSec <= 0 {
		t.Fatalf("nil-provider candidate = %+v, want uniform source", costs[0])
	}
}

// TestRankBandwidthPrefersFastHub pins the tentpole's decision case: the
// byte-optimal site sits behind the slow link, so the bandwidth rank
// must lead with the well-connected hub instead — and under uniform
// bandwidth the head must coincide with the byte rule (the parity the
// sim≡live property test relies on).
func TestRankBandwidthPrefersFastHub(t *testing.T) {
	sizes := []float64{45e3, 10e3, 40e3}
	links := symmetric(
		[3]float64{0, 1, 100e6},
		[3]float64{1, 2, 100e6},
		[3]float64{0, 2, 1e6},
	)
	rank, costs := RankBandwidth[int](sizes, links)
	if fmt.Sprint(rank) != "[1 0 2]" {
		t.Fatalf("bandwidth rank = %v, want [1 0 2] (hub first)", rank)
	}
	best := Rank[int](sizes, AggregatorBest, nil)
	if best[0] != 0 {
		t.Fatalf("byte rule head = %d, want 0 (largest share)", best[0])
	}
	if costs[rank[0]].CostSec >= costs[best[0]].CostSec {
		t.Fatalf("bandwidth pick %d (%.4fs) not cheaper than byte pick %d (%.4fs)",
			rank[0], costs[rank[0]].CostSec, best[0], costs[best[0]].CostSec)
	}

	// Uniform bandwidth: the ranking degenerates to the byte rule.
	uniformRank, _ := RankBandwidth[int](sizes, nil)
	if uniformRank[0] != best[0] {
		t.Fatalf("uniform-bandwidth head %d != byte-rule head %d", uniformRank[0], best[0])
	}

	// Degenerate inputs are sanitized like Rank's.
	for i := 0; i < 10; i++ {
		r, _ := RankBandwidth[int]([]float64{math.NaN(), 5, math.Inf(-1)}, nil)
		if fmt.Sprint(r) != "[1 0 2]" {
			t.Fatalf("degenerate bandwidth rank = %v, want [1 0 2] (site 1 is the only holder, so it alone pays no transfer)", r)
		}
	}
}

// TestDriverBandwidthPolicy drives the same skewed lineage under the
// byte rule and the bandwidth rule: site 0 holds the largest share but
// sits behind the slow link, so AggregatorBest must pick 0 and
// AggregatorBandwidth the hub site 1 — with the decision recorded for
// the run report, costs and all.
func TestDriverBandwidthPolicy(t *testing.T) {
	build := func() *rdd.RDD {
		g := rdd.NewGraph()
		pads := []int{4500, 1000, 4000} // site i's input share, bytes-ish
		var parts []rdd.InputPartition
		for p := 0; p < 3; p++ {
			parts = append(parts, rdd.InputPartition{
				Host: topology.HostID(p), ModeledBytes: 1,
				Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", p), strings.Repeat("x", pads[p]))},
			})
		}
		return g.Input("in", parts).GroupByKey("g", 3)
	}
	links := symmetric(
		[3]float64{0, 1, 100e6},
		[3]float64{1, 2, 100e6},
		[3]float64{0, 2, 1e6},
	)

	run := func(cfg DriverConfig) *Driver {
		job, err := BuildJob(build())
		if err != nil {
			t.Fatal(err)
		}
		drv := NewDriver(job, NewMemBackend(3), cfg)
		if _, err := drv.Run(); err != nil {
			t.Fatal(err)
		}
		return drv
	}

	best := run(DriverConfig{Aggregate: true, Policy: AggregatorBest, LinkCosts: links})
	bw := run(DriverConfig{Aggregate: true, Policy: AggregatorBandwidth, LinkCosts: links})

	job, _ := BuildJob(build())
	shuffleID := job.Plan.Shuffles()[0].ID
	if got := best.AggregatedTo(shuffleID); len(got) != 1 || got[0] != 0 {
		t.Fatalf("best aggregated to %v, want [0]", got)
	}
	if got := bw.AggregatedTo(shuffleID); len(got) != 1 || got[0] != 1 {
		t.Fatalf("bandwidth aggregated to %v, want [1] (the hub)", got)
	}

	// Both runs recorded their decision, with every candidate costed.
	for name, drv := range map[string]*Driver{"best": best, "bandwidth": bw} {
		decs := drv.Placements()
		if len(decs) != 1 {
			t.Fatalf("%s: %d placement decisions, want 1", name, len(decs))
		}
		d := decs[0]
		if d.Shuffle != shuffleID || len(d.Candidates) != 3 {
			t.Fatalf("%s: decision %+v lacks shuffle/candidates", name, d)
		}
		for _, c := range d.Candidates {
			if math.IsNaN(c.CostSec) || math.IsInf(c.CostSec, 0) {
				t.Fatalf("%s: candidate %+v has non-finite cost", name, c)
			}
		}
	}
	bd, bb := bw.Placements()[0], best.Placements()[0]
	if bd.CostSec >= bb.CostSec {
		t.Fatalf("bandwidth decision cost %.4f not below best's %.4f", bd.CostSec, bb.CostSec)
	}
	if bd.Source != BandwidthConfigured {
		t.Fatalf("bandwidth decision source = %q, want configured", bd.Source)
	}
}

// TestInputSizesFollowTaskPlacement checks what ChooseAggregator is told a
// site holds against where the stage's tasks actually ran: a candidate's
// input bytes are the leaf partitions read by the tasks the event log shows
// at that site (plus the map outputs held there). Under a union of uneven
// inputs task 3+j reads the second input's partition j, and a stage that
// also reads an aggregated shuffle runs every task at the aggregator.
func TestInputSizesFollowTaskPlacement(t *testing.T) {
	input := func(g *rdd.Graph, name string, n int) (*rdd.RDD, []rdd.InputPartition) {
		parts := make([]rdd.InputPartition, n)
		for p := range parts {
			parts[p] = rdd.InputPartition{ModeledBytes: 1, Records: []rdd.Pair{
				rdd.KV(fmt.Sprintf("%s%d", name, p), strings.Repeat("x", 100*(p+1)+7*len(name))),
			}}
		}
		return g.Input(name, parts), parts
	}
	for _, tc := range []struct {
		name     string
		decision int // index into Placements()
		// build returns the job and, per task of the decision's stage, the
		// leaf records that task reads (nil for none).
		build func() (*rdd.RDD, func(part int) []rdd.Pair)
	}{
		{"union of uneven inputs", 0, func() (*rdd.RDD, func(int) []rdd.Pair) {
			g := rdd.NewGraph()
			a, aParts := input(g, "a", 3)
			b, bParts := input(g, "bb", 4)
			return a.Union("u", b).GroupByKey("g", 2), func(part int) []rdd.Pair {
				if part < 3 {
					return aParts[part].Records
				}
				return bParts[part-3].Records
			}
		}},
		{"leaf beside an aggregated shuffle", 1, func() (*rdd.RDD, func(int) []rdd.Pair) {
			g := rdd.NewGraph()
			a, _ := input(g, "a", 3)
			b, bParts := input(g, "bb", 3)
			return a.GroupByKey("g1", 2).Union("u", b).GroupByKey("g2", 2), func(part int) []rdd.Pair {
				if part < 2 {
					return nil // reads shuffle g1
				}
				return bParts[part-2].Records
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			target, leafOf := tc.build()
			job, err := BuildJob(target)
			if err != nil {
				t.Fatal(err)
			}
			be := NewMemBackend(4)
			drv := NewDriver(job, be, DriverConfig{Aggregate: true})
			if _, err := drv.Run(); err != nil {
				t.Fatal(err)
			}
			dec := drv.Placements()[tc.decision]
			want := make([]float64, be.Sites)
			tasks := 0
			for _, ev := range be.Events.TaskEvents() {
				if ev.Stage == dec.Stage && ev.Phase == obs.PhaseFinished {
					if leaf := leafOf(ev.Part); leaf != nil {
						want[ev.Site] += rdd.EncodedSize(leaf)
					}
					tasks++
				}
			}
			for _, st := range job.Stages() {
				if st.ID == dec.Stage {
					if tasks != st.NumTasks {
						t.Fatalf("event log shows %d finished tasks of stage %d, want %d", tasks, st.ID, st.NumTasks)
					}
					drv.outputs.AddBoundaryBytes(st, want)
				}
			}
			for _, c := range dec.Candidates {
				if c.InputBytes != want[c.Site] {
					t.Errorf("site %d: decision booked %.0f input bytes, its tasks read %.0f", c.Site, c.InputBytes, want[c.Site])
				}
			}
		})
	}
}
