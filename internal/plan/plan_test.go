package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/shuffle"
	"wanshuffle/internal/topology"
)

func TestRankBestHeadIsBestAggregator(t *testing.T) {
	bySite := []float64{10, 50, 20, 50, 5}
	rank := Rank[int](bySite, AggregatorBest, nil)
	best, _ := shuffle.BestAggregator(bySite)
	if rank[0] != best {
		t.Fatalf("rank head %d != BestAggregator %d", rank[0], best)
	}
	if got, want := fmt.Sprint(rank), "[1 3 2 0 4]"; got != want {
		t.Fatalf("rank = %v, want %v (descending, ties to lowest index)", got, want)
	}
}

func TestRankWorstReversesBest(t *testing.T) {
	bySite := []float64{10, 50, 20}
	best := Rank[int](bySite, AggregatorBest, nil)
	worst := Rank[int](bySite, AggregatorWorst, nil)
	for i := range best {
		if worst[i] != best[len(best)-1-i] {
			t.Fatalf("worst %v is not best %v reversed", worst, best)
		}
	}
}

func TestRankRandomUsesShuffleFn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rank := Rank[int](make([]float64, 8), AggregatorRandom, rng.Shuffle)
	seen := map[int]bool{}
	for _, s := range rank {
		seen[s] = true
	}
	if len(seen) != 8 {
		t.Fatalf("random rank %v is not a permutation", rank)
	}
}

func TestRankPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("random without shuffleFn", func() { Rank[int]([]float64{1}, AggregatorRandom, nil) })
	expectPanic("unknown policy", func() { Rank[int]([]float64{1}, AggregatorPolicy(99), nil) })
}

func TestSpreadTopKClamps(t *testing.T) {
	rank := []int{4, 2, 7}
	if got := SpreadTopK(rank, 0, 5); got != 4 {
		t.Fatalf("k=0 should clamp to 1, got site %d", got)
	}
	if got := SpreadTopK(rank, 99, 4); got != rank[4%3] {
		t.Fatalf("k>len should clamp to len, got site %d", got)
	}
	if got := SpreadTopK(rank, 2, 3); got != rank[1] {
		t.Fatalf("round-robin over top-2 broken, got site %d", got)
	}
}

func canon(records []rdd.Pair) string {
	cp := make([]rdd.Pair, len(records))
	copy(cp, records)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Key != cp[j].Key {
			return cp[i].Key < cp[j].Key
		}
		return fmt.Sprint(cp[i].Value) < fmt.Sprint(cp[j].Value)
	})
	var b strings.Builder
	for _, p := range cp {
		fmt.Fprintf(&b, "%s=%v;", p.Key, p.Value)
	}
	return b.String()
}

func hosts(n int) []topology.HostID {
	out := make([]topology.HostID, n)
	for i := range out {
		out[i] = topology.HostID(i)
	}
	return out
}

// runMem drives a job over a MemBackend and flattens the result.
func runMem(t *testing.T, target *rdd.RDD, cfg DriverConfig, sites int) ([]rdd.Pair, *Driver) {
	t.Helper()
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(job, NewMemBackend(sites), cfg)
	parts, err := drv.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out []rdd.Pair
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, drv
}

func TestDriverMemBackendMatchesEvalLocal(t *testing.T) {
	for _, cfg := range []DriverConfig{
		{},
		{Aggregate: true},
		{Aggregate: true, Aggregators: []int{2}},
	} {
		f := func(seedRaw uint16) bool {
			seed := int64(seedRaw)
			want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6))))
			got, _ := runMem(t, rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6)), cfg, 3)
			if canon(got) != want {
				t.Logf("seed %d cfg %+v: output diverges from reference", seed, cfg)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDriverAggregatorFollowsMeasuredSizes plants nearly all map output on
// one site and checks the second shuffle aggregates there: the driver must
// feed shuffle.BestAggregator measured sizes, not static guesses.
func TestDriverAggregatorFollowsMeasuredSizes(t *testing.T) {
	g := rdd.NewGraph()
	var parts []rdd.InputPartition
	for p := 0; p < 6; p++ {
		big := ""
		if p == 4 {
			big = strings.Repeat("x", 4096) // partition 4 dwarfs the rest
		}
		parts = append(parts, rdd.InputPartition{
			Host: topology.HostID(p), ModeledBytes: 1,
			Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", p), big)},
		})
	}
	job := g.Input("in", parts).
		GroupByKey("g1", 6).
		MapValues("keep", func(v rdd.Value) rdd.Value { return v }).
		GroupByKey("g2", 2)

	pj, err := BuildJob(job)
	if err != nil {
		t.Fatal(err)
	}
	drv := NewDriver(pj, NewMemBackend(6), DriverConfig{Aggregate: true})
	if _, err := drv.Run(); err != nil {
		t.Fatal(err)
	}
	specs := pj.Plan.Shuffles()
	if len(specs) != 2 {
		t.Fatalf("want 2 shuffles, got %d", len(specs))
	}
	// Partition 4's record dwarfs the rest, so the first shuffle must
	// aggregate at site 4 (its input's home); the second shuffle's map
	// output then all sits at site 4, so it must pick site 4 too — both
	// from measured byte sizes, not static guesses.
	first := drv.AggregatedTo(specs[0].ID)
	second := drv.AggregatedTo(specs[1].ID)
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("aggregators not chosen: %v %v", first, second)
	}
	if first[0] != 4 {
		t.Fatalf("first shuffle aggregated at %d, want the byte-heavy site 4", first[0])
	}
	if second[0] != first[0] {
		t.Fatalf("second shuffle aggregated at %d, want measured-heavy site %d", second[0], first[0])
	}
	for m := 0; m < drv.outputs.NumMaps(specs[1].ID); m++ {
		if site, err := drv.outputs.Holder(specs[1].ID, m); err != nil || site != second[0] {
			t.Fatalf("map output %d held at site %d (%v), want the aggregator %d", m, site, err, second[0])
		}
	}
}

func TestDriverRejectsTransferPhases(t *testing.T) {
	g := rdd.NewGraph()
	in := g.Input("in", []rdd.InputPartition{{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1)}}})
	target := in.TransferTo(1).ReduceByKey("r", 2, func(a, b rdd.Value) rdd.Value { return a })
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDriver(job, NewMemBackend(2), DriverConfig{}).Run(); err == nil {
		t.Fatal("transferTo phases accepted; aggregation is a backend mode")
	}
}

func TestDriverRetriesUntilBudget(t *testing.T) {
	g := rdd.NewGraph()
	target := g.Input("in", []rdd.InputPartition{{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1)}}}).
		ReduceByKey("r", 1, func(a, b rdd.Value) rdd.Value { return a })
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	be := &flakyBackend{MemBackend: NewMemBackend(2), failFirst: MaxAttempts - 1}
	if _, err := NewDriver(job, be, DriverConfig{}).Run(); err != nil {
		t.Fatalf("%d failures within %d attempts should succeed: %v", MaxAttempts-1, MaxAttempts, err)
	}
	be = &flakyBackend{MemBackend: NewMemBackend(2), failFirst: MaxAttempts}
	if _, err := NewDriver(job, be, DriverConfig{}).Run(); err == nil {
		t.Fatalf("%d failures should exhaust %d attempts", MaxAttempts, MaxAttempts)
	}
}

// flakyBackend fails the first N map-task attempts.
type flakyBackend struct {
	*MemBackend
	failFirst int
}

func (b *flakyBackend) RunTask(t Task) (TaskResult, error) {
	if t.Stage.OutSpec != nil && b.failFirst > 0 {
		b.failFirst--
		return TaskResult{}, fmt.Errorf("flaky: injected failure")
	}
	return b.MemBackend.RunTask(t)
}

// deadSiteBackend wraps MemBackend with a permanently dead site: every
// task attempt there fails, and SiteHealth reports it unhealthy. The
// driver must steer retried attempts to a healthy site, so jobs complete
// despite the hole. Every attempt takes nap, long enough for attempts that
// may overlap to be seen overlapping.
type deadSiteBackend struct {
	*MemBackend
	dead int
	nap  time.Duration

	mu       sync.Mutex
	attempts []int       // sites tried, in attempt order
	running  map[int]int // attempts in flight, by site
	peak     map[int]int // the most that ever were, by site
}

func (b *deadSiteBackend) RunTask(t Task) (TaskResult, error) {
	b.mu.Lock()
	b.attempts = append(b.attempts, t.Site)
	b.running[t.Site]++
	b.peak[t.Site] = max(b.peak[t.Site], b.running[t.Site])
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.running[t.Site]--
		b.mu.Unlock()
	}()
	time.Sleep(b.nap)
	if t.Site == b.dead {
		return TaskResult{}, fmt.Errorf("dead: site %d is down", t.Site)
	}
	return b.MemBackend.RunTask(t)
}

// SiteHealthy implements SiteHealth.
func (b *deadSiteBackend) SiteHealthy(site int) bool { return site != b.dead }

// TestDriverReplacesTasksOffDeadSite checks the SiteHealth fail-over: with
// site 0 permanently dead, every task the placer sends there must fail
// once, be re-placed on a healthy site by the retry path, and succeed —
// within the default attempt budget, and with the reference output. A moved
// task takes a slot where it lands: no site ever runs more tasks at once
// than SiteSlots, least of all the one inheriting the dead site's.
func TestDriverReplacesTasksOffDeadSite(t *testing.T) {
	for _, tc := range []struct {
		name         string
		parts, slots int // slots 0: the default, 2
		nap          time.Duration
	}{
		{"default slots", 4, 0, 0},
		{"one slot, slow tasks", 12, 1, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *rdd.RDD {
				g := rdd.NewGraph()
				inputs := make([]rdd.InputPartition, tc.parts)
				for p := range inputs {
					inputs[p] = rdd.InputPartition{Host: topology.HostID(p), ModeledBytes: 1,
						Records: []rdd.Pair{rdd.KV(fmt.Sprintf("k%d", p%2), 1)}}
				}
				return g.Input("in", inputs).
					ReduceByKey("sum", 2, func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) })
			}
			want := canon(rdd.CollectLocal(build()))

			job, err := BuildJob(build())
			if err != nil {
				t.Fatal(err)
			}
			be := &deadSiteBackend{MemBackend: NewMemBackend(3), dead: 0, nap: tc.nap,
				running: map[int]int{}, peak: map[int]int{}}
			drv := NewDriver(job, be, DriverConfig{SiteSlots: tc.slots})
			parts, err := drv.Run()
			if err != nil {
				t.Fatalf("job must survive a dead site via re-placement: %v", err)
			}
			var out []rdd.Pair
			for _, p := range parts {
				out = append(out, p...)
			}
			if canon(out) != want {
				t.Fatal("fail-over output diverges from reference")
			}

			// Every third map part and reduce part 0 round-robin onto dead
			// site 0; each must show exactly one failed attempt there and
			// none after re-placement.
			wantDead := (tc.parts+2)/3 + 1
			deadTries, healthyTries := 0, 0
			for _, site := range be.attempts {
				if site == be.dead {
					deadTries++
				} else {
					healthyTries++
				}
			}
			if deadTries != wantDead {
				t.Fatalf("dead-site attempts = %d, want %d (every third map task, reduce t0): %v", deadTries, wantDead, be.attempts)
			}
			if got := be.Events.Counts().Retried; got != wantDead {
				t.Fatalf("retried events = %d, want %d", got, wantDead)
			}
			if healthyTries < tc.parts+2 {
				t.Fatalf("healthy attempts = %d, want >= %d (every task completes off-site-0)", healthyTries, tc.parts+2)
			}
			for site, peak := range be.peak {
				if peak > drv.cfg.SiteSlots {
					t.Errorf("site %d ran %d tasks at once, SiteSlots is %d", site, peak, drv.cfg.SiteSlots)
				}
			}
		})
	}
}

// TestDriverRetriesInPlaceWithoutHealthView checks the degenerate ends of
// replaceSite: with every site unhealthy there is nowhere to move, so a
// transiently flaky task retries in place and still succeeds.
func TestDriverRetriesInPlaceWithoutHealthView(t *testing.T) {
	g := rdd.NewGraph()
	target := g.Input("in", []rdd.InputPartition{{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1)}}}).
		ReduceByKey("r", 1, func(a, b rdd.Value) rdd.Value { return a })
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	be := &allUnhealthyBackend{flakyBackend: &flakyBackend{MemBackend: NewMemBackend(2), failFirst: 1}}
	if _, err := NewDriver(job, be, DriverConfig{}).Run(); err != nil {
		t.Fatalf("transient failure with no healthy site should retry in place: %v", err)
	}
}

// allUnhealthyBackend reports every site unhealthy.
type allUnhealthyBackend struct{ *flakyBackend }

func (b *allUnhealthyBackend) SiteHealthy(int) bool { return false }
