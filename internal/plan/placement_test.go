package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// eq2Optimum is Eq. 2 by brute force: the site i whose cross-site traffic
// S − s_i is least, the lowest such index on a tie.
func eq2Optimum(bySite []float64) int {
	var total float64
	for _, s := range bySite {
		total += s
	}
	best := 0
	for i, s := range bySite {
		if total-s < total-bySite[best] {
			best = i
		}
	}
	return best
}

// TestChooseAggregatorRanking pins the order each policy ranks sites in.
// Best is descending input share with ties toward the lower site index, and
// its head is the Eq. 2 optimum (eq2Optimum); worst is that order
// reversed; random is that order put through the seeded shuffle; bandwidth
// is ascending estimated transfer time, so under uniform bandwidth (nil
// links) it is the byte rule's order. NaN, ±Inf and negative shares rank
// as zero bytes, and the order is the same on every call — an old
// extraction loop marked extracted sites with -Inf, which collided with
// degenerate inputs and scrambled ties.
func TestChooseAggregatorRanking(t *testing.T) {
	hub := symmetric( // site 0 holds the most but sits behind the slow link
		[3]float64{0, 1, 100e6},
		[3]float64{1, 2, 100e6},
		[3]float64{0, 2, 1e6},
	)
	order := func(bySite []float64, policy AggregatorPolicy, links LinkCostProvider,
		shuffleFn func(n int, swap func(i, j int))) ([]int, obs.PlacementDecision) {
		return ChooseAggregator[int](0, 0, bySite, policy, links, shuffleFn, nil)
	}
	for _, tc := range []struct {
		name      string
		bySite    []float64
		links     LinkCostProvider
		best      string
		bandwidth string
	}{
		{"shares with a tie", []float64{10, 50, 20, 50, 5}, nil, "[1 3 2 0 4]", "[1 3 2 0 4]"},
		{"three sites", []float64{10, 50, 20}, nil, "[1 2 0]", "[1 2 0]"},
		{"plain ties", []float64{5, 5, 5}, nil, "[0 1 2]", "[0 1 2]"},
		{"nan treated as zero", []float64{5, math.NaN(), 5, math.NaN(), 5}, nil, "[0 2 4 1 3]", "[0 2 4 1 3]"},
		{"neg inf collides with old sentinel", []float64{math.Inf(-1), 3, math.Inf(-1), 7}, nil, "[3 1 0 2]", "[3 1 0 2]"},
		{"negative shares rank last", []float64{-10, 2, -3}, nil, "[1 0 2]", "[1 0 2]"},
		{"pos inf treated as zero", []float64{math.Inf(1), 4}, nil, "[1 0]", "[1 0]"},
		{"all degenerate", []float64{math.NaN(), math.Inf(-1), -1}, nil, "[0 1 2]", "[0 1 2]"},
		{"eight empty sites", make([]float64, 8), nil, "[0 1 2 3 4 5 6 7]", "[0 1 2 3 4 5 6 7]"},
		// Site 1 is the only holder, so it alone pays no transfer.
		{"sole holder", []float64{math.NaN(), 5, math.Inf(-1)}, nil, "[1 0 2]", "[1 0 2]"},
		// The byte-optimal site sits behind the slow link: the bandwidth
		// rule leads with the well-connected hub instead.
		{"fast hub", []float64{45e3, 10e3, 40e3}, hub, "[0 2 1]", "[1 0 2]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 25; i++ {
				best, bestDec := order(tc.bySite, AggregatorBest, tc.links, nil)
				if got := fmt.Sprint(best); got != tc.best {
					t.Fatalf("iteration %d: best = %s, want %s", i, got, tc.best)
				}
				if head := eq2Optimum(sanitizeSizes(tc.bySite)); best[0] != head {
					t.Fatalf("best head %d != Eq. 2 optimum %d", best[0], head)
				}
				worst, _ := order(tc.bySite, AggregatorWorst, tc.links, nil)
				if got, want := fmt.Sprint(worst), fmt.Sprint(reversed(best)); got != want {
					t.Fatalf("iteration %d: worst = %s, want best reversed %s", i, got, want)
				}
				random, _ := order(tc.bySite, AggregatorRandom, tc.links, rand.New(rand.NewSource(7)).Shuffle)
				shuffled := slices.Clone(best)
				rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				if fmt.Sprint(random) != fmt.Sprint(shuffled) {
					t.Fatalf("iteration %d: random = %v, want best through the seeded shuffle %v", i, random, shuffled)
				}
				bw, bwDec := order(tc.bySite, AggregatorBandwidth, tc.links, nil)
				if got := fmt.Sprint(bw); got != tc.bandwidth {
					t.Fatalf("iteration %d: bandwidth = %s, want %s", i, got, tc.bandwidth)
				}
				if bw[0] != best[0] && bwDec.CostSec >= bestDec.CostSec {
					t.Fatalf("bandwidth pick %d (%.4fs) not cheaper than byte pick %d (%.4fs)",
						bw[0], bwDec.CostSec, best[0], bestDec.CostSec)
				}
			}
		})
	}

	t.Run("panics", func(t *testing.T) {
		expectPanic := func(name string, fn func()) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}
		expectPanic("random without shuffleFn", func() { order([]float64{1}, AggregatorRandom, nil, nil) })
		expectPanic("unknown policy", func() { order([]float64{1}, AggregatorPolicy(99), nil, nil) })
	})
}

func reversed(rank []int) []int {
	out := slices.Clone(rank)
	slices.Reverse(out)
	return out
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
	costs := estimateTransferCosts(sizes, links)
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
	costs = estimateTransferCosts([]float64{10e3, 0, 40e3}, partial)
	wantUniform := 40e3 * 8 / defaultUniformBps
	if math.Abs(costs[1].CostSec-wantUniform) > 1e-12 || costs[1].Source != bandwidthUniform {
		t.Fatalf("mixed-source candidate = %+v, want uniform-dominated cost %.6f", costs[1], wantUniform)
	}

	// A nil provider prices everything uniformly; a candidate with no
	// remote inflow costs zero and carries no source.
	costs = estimateTransferCosts([]float64{0, 10e3, 0}, nil)
	if costs[1].CostSec != 0 || costs[1].Source != "" {
		t.Fatalf("sole-holder candidate = %+v, want zero cost and empty source", costs[1])
	}
	if costs[0].Source != bandwidthUniform || costs[0].CostSec <= 0 {
		t.Fatalf("nil-provider candidate = %+v, want uniform source", costs[0])
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

	run := func(cfg DriverConfig) []obs.PlacementDecision {
		job, err := BuildJob(pushed(build()))
		if err != nil {
			t.Fatal(err)
		}
		be := NewMemBackend(3)
		drv := NewDriver(job, be, cfg)
		if _, err := drv.Run(); err != nil {
			t.Fatal(err)
		}
		return be.Events.Placements()
	}

	bestDecs := run(DriverConfig{Policy: AggregatorBest, LinkCosts: links})
	bwDecs := run(DriverConfig{Policy: AggregatorBandwidth, LinkCosts: links})

	job, _ := BuildJob(build())
	shuffleID := job.Stages()[0].OutSpec.ID
	if len(bestDecs) == 0 || bestDecs[0].Chosen != 0 {
		t.Fatalf("best decided %+v, want site 0", bestDecs)
	}
	if len(bwDecs) == 0 || bwDecs[0].Chosen != 1 {
		t.Fatalf("bandwidth decided %+v, want site 1 (the hub)", bwDecs)
	}

	// Both runs recorded their decision, with every candidate costed.
	for name, decs := range map[string][]obs.PlacementDecision{"best": bestDecs, "bandwidth": bwDecs} {
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
	bd, bb := bwDecs[0], bestDecs[0]
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
// at that site, plus the map outputs held there. The leaf is the union of
// two uneven inputs, a with three partitions and bb with four, laid end to
// end on four sites, so task 3+j reads bb's partition j; the stage over the
// first shuffle reads only map outputs, all at their aggregator.
func TestInputSizesFollowTaskPlacement(t *testing.T) {
	t.Run("union of uneven inputs", func(t *testing.T) {
		var parts []rdd.InputPartition
		for _, in := range []struct {
			name string
			n    int
		}{{"a", 3}, {"bb", 4}} {
			for p := 0; p < in.n; p++ {
				parts = append(parts, rdd.InputPartition{ModeledBytes: 1, Records: []rdd.Pair{
					rdd.KV(fmt.Sprintf("%s%d", in.name, p), strings.Repeat("x", 100*(p+1)+7*len(in.name))),
				}})
			}
		}
		leaf := rdd.NewGraph().Input("u", parts)
		job, err := BuildJob(pushed(leaf.GroupByKey("g1", 2).GroupByKey("g2", 2)))
		if err != nil {
			t.Fatal(err)
		}
		be := NewMemBackend(4)
		drv := NewDriver(job, be, DriverConfig{})
		if _, err := drv.Run(); err != nil {
			t.Fatal(err)
		}
		decs := be.Events.Placements()
		if len(decs) != 2 {
			t.Fatalf("%d placement decisions, want one per shuffle", len(decs))
		}
		for _, dec := range decs {
			st := job.Stages()[dec.Stage]
			want := make([]float64, be.Sites)
			tasks := 0
			for _, ev := range be.Events.TaskEvents() {
				if ev.Stage == dec.Stage && ev.Phase == obs.PhaseFinished {
					if st.Base == leaf {
						n, err := rdd.EncodedSize(parts[ev.Part].Records)
						if err != nil {
							t.Fatal(err)
						}
						want[ev.Site] += n
					}
					tasks++
				}
			}
			if tasks != st.NumTasks {
				t.Fatalf("event log shows %d finished tasks of stage %d, want %d", tasks, st.ID, st.NumTasks)
			}
			for di := range st.Base.Deps {
				drv.outputs.AddSiteBytes(st.Base.Deps[di].Shuffle.ID, want)
			}
			for _, c := range dec.Candidates {
				if c.InputBytes != want[c.Site] {
					t.Errorf("stage %d site %d: decision booked %.0f input bytes, its tasks read %.0f", st.ID, c.Site, c.InputBytes, want[c.Site])
				}
			}
		}
	})
}

// TestReduceTasksFollowTheTable checks where the driver runs the tasks of a
// stage over shuffles: on the site the tracker holds its first input
// shuffle at when every parent stage pushes, round-robin otherwise. The
// cogroup's left input is heavy on site 2 and its right on site 1, so its
// two pushed sides aggregate on different sites and only the first names
// where the reducers run.
func TestReduceTasksFollowTheTable(t *testing.T) {
	const sites, reduces = 3, 4
	side := func(g *rdd.Graph, name string, heavy int) *rdd.RDD {
		parts := make([]rdd.InputPartition, sites)
		for p := range parts {
			pad := 10
			if p == heavy { // leaf task p runs on site p
				pad = 2000
			}
			for k := 0; k < 5; k++ {
				parts[p].Records = append(parts[p].Records, rdd.KV(fmt.Sprintf("k%d", k), strings.Repeat("x", pad)))
			}
			parts[p].ModeledBytes = 1
		}
		return g.Input(name, parts)
	}
	sum := func(a, b rdd.Value) rdd.Value { return a.(string) + b.(string) }
	for _, tc := range []struct {
		name  string
		build func(left, right *rdd.RDD) *rdd.RDD
		table bool // every parent stage pushes
	}{
		{"cogroup, both sides pushed", func(l, r *rdd.RDD) *rdd.RDD { return l.TransferToAuto().CoGroup("out", r.TransferToAuto(), reduces) }, true},
		{"cogroup, left pushed, right fetched", func(l, r *rdd.RDD) *rdd.RDD { return l.TransferToAuto().CoGroup("out", r, reduces) }, false},
		{"fetched shuffle", func(l, _ *rdd.RDD) *rdd.RDD { return l.ReduceByKey("out", reduces, sum) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lineage := func() *rdd.RDD {
				g := rdd.NewGraph()
				return tc.build(side(g, "left", 2), side(g, "right", 1))
			}
			job, err := BuildJob(lineage())
			if err != nil {
				t.Fatal(err)
			}
			be := NewMemBackend(sites)
			drv := NewDriver(job, be, DriverConfig{})
			out, err := drv.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canon(slices.Concat(out...)), canon(rdd.CollectLocal(lineage())); got != want {
				t.Fatalf("output %s, want %s", got, want)
			}
			final := job.final()
			want := func(part int) int { return part % sites }
			if tc.table {
				holders, err := drv.outputs.Holders(final.Base.Deps[0].Shuffle.ID)
				if err != nil {
					t.Fatal(err)
				}
				other, err := drv.outputs.Holders(final.Base.Deps[1].Shuffle.ID)
				if err != nil {
					t.Fatal(err)
				}
				if holders[0] != 2 || other[0] != 1 {
					t.Fatalf("sides aggregated at %d and %d, want 2 and 1", holders[0], other[0])
				}
				want = func(int) int { return holders[0] }
			}
			placed := 0
			for _, ev := range be.Events.TaskEvents() {
				if ev.Stage != final.ID || ev.Phase != obs.PhaseScheduled {
					continue
				}
				placed++
				if ev.Site != want(ev.Part) {
					t.Errorf("reduce task %d placed on site %d, want %d", ev.Part, ev.Site, want(ev.Part))
				}
			}
			if placed != reduces {
				t.Fatalf("%d reduce tasks placed, want %d", placed, reduces)
			}
		})
	}
}
