package plan

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

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

// pushed is target with a transferTo before every shuffle
// (dag.AutoAggregate), the way a job says push.
func pushed(target *rdd.RDD) *rdd.RDD {
	dag.AutoAggregate(target)
	return target
}

// pushFirstShuffle feeds only the first shuffle of target's lineage (the
// lowest shuffle ID) through TransferToAuto, and returns its ID, -1 when the
// lineage has no shuffle.
func pushFirstShuffle(target *rdd.RDD) int {
	var first *rdd.Dependency
	seen := map[int]bool{}
	var walk func(n *rdd.RDD)
	walk = func(n *rdd.RDD) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		for di := range n.Deps {
			d := &n.Deps[di]
			if d.Kind == rdd.DepShuffle && (first == nil || d.Shuffle.ID < first.Shuffle.ID) {
				first = d
			}
			walk(d.Parent)
		}
	}
	walk(target)
	if first == nil {
		return -1
	}
	first.Parent = first.Parent.TransferToAuto()
	return first.Shuffle.ID
}

// runMem drives a job over a memBackend and flattens the result.
func runMem(t *testing.T, target *rdd.RDD, cfg DriverConfig, sites int) ([]rdd.Pair, *memBackend) {
	t.Helper()
	job, err := BuildJob(target)
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend(sites)
	parts, err := NewDriver(job, be, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	var out []rdd.Pair
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, be
}

func TestDriverMemBackendMatchesEvalLocal(t *testing.T) {
	for _, tc := range []struct {
		name string
		// push rewrites the lineage and returns the ID of the one shuffle
		// it pushes, or -1 when it pushes every shuffle or none.
		push func(*rdd.RDD) int
		cfg  DriverConfig
	}{
		{"fetch", func(*rdd.RDD) int { return -1 }, DriverConfig{}},
		{"push", func(r *rdd.RDD) int { pushed(r); return -1 }, DriverConfig{}},
		// Aggregation at the smallest input share: map outputs cross to a
		// site other than Eq. 2's.
		{"push/worst", func(r *rdd.RDD) int { pushed(r); return -1 }, DriverConfig{Policy: AggregatorWorst}},
		// One shuffle pushed and the rest fetched, in one job: what no
		// cluster-wide switch could say.
		{"push first shuffle", pushFirstShuffle, DriverConfig{}},
	} {
		f := func(seedRaw uint16) bool {
			seed := int64(seedRaw)
			want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6))))
			target := rdd.RandomLineage(seed, rdd.NewGraph(), hosts(6))
			only := tc.push(target)
			got, be := runMem(t, target, tc.cfg, 3)
			if canon(got) != want {
				t.Logf("seed %d %s: output diverges from reference", seed, tc.name)
				return false
			}
			if decs := be.Events.Placements(); only >= 0 && (len(decs) != 1 || decs[0].Shuffle != only) {
				t.Logf("seed %d %s: placement decisions %+v, want one, for shuffle %d", seed, tc.name, decs, only)
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
// feed Eq. 2 (ChooseAggregator) measured sizes, not static guesses.
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
		Map("keep", func(p rdd.Pair) rdd.Pair { return p }).
		GroupByKey("g2", 2)

	pj, err := BuildJob(pushed(job))
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend(6)
	drv := NewDriver(pj, be, DriverConfig{})
	if _, err := drv.Run(); err != nil {
		t.Fatal(err)
	}
	stages := pj.Stages() // g1's map stage, g2's, the result stage
	if len(stages) != 3 {
		t.Fatalf("want 3 stages, got %d", len(stages))
	}
	specs := []*rdd.ShuffleSpec{stages[0].OutSpec, stages[1].OutSpec}
	// Partition 4's record dwarfs the rest, so the first shuffle must
	// aggregate at site 4 (its input's home); the second shuffle's map
	// output then all sits at site 4, so it must pick site 4 too — both
	// from measured byte sizes, not static guesses.
	decs := be.Events.Placements()
	if len(decs) != 2 || decs[0].Shuffle != specs[0].ID || decs[1].Shuffle != specs[1].ID {
		t.Fatalf("placement decisions %+v, want one per shuffle in stage order", decs)
	}
	first, second := decs[0].Chosen, decs[1].Chosen
	if first != 4 {
		t.Fatalf("first shuffle aggregated at %d, want the byte-heavy site 4", first)
	}
	if second != first {
		t.Fatalf("second shuffle aggregated at %d, want measured-heavy site %d", second, first)
	}
	holders, err := drv.outputs.Holders(specs[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	for m, site := range holders {
		if site != second {
			t.Fatalf("map output %d held at site %d, want the aggregator %d", m, site, second)
		}
	}
}

// countingBackend is a memBackend that counts the tasks it is handed.
type countingBackend struct {
	*memBackend
	tasks atomic.Int64
}

func (b *countingBackend) RunTask(t Task) (TaskResult, error) {
	b.tasks.Add(1)
	return b.memBackend.RunTask(t)
}

// TestDriverRejectsTransferPhases holds the driver to the one transfer it
// runs, a single-aggregator TransferToAuto directly before a shuffle: it
// pushes that shuffle, and rejects any other transfer before a task runs,
// with an error naming the stage that carries it.
func TestDriverRejectsTransferPhases(t *testing.T) {
	sum := func(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }
	for _, tc := range []struct {
		name   string
		build  func(in *rdd.RDD) *rdd.RDD
		pushes bool
	}{
		{"TransferTo(dc)", func(in *rdd.RDD) *rdd.RDD { return in.TransferTo(1).ReduceByKey("r", 2, sum) }, false},
		{"TransferToTopK(2)", func(in *rdd.RDD) *rdd.RDD { return in.TransferToTopK(2).ReduceByKey("r", 2, sum) }, false},
		{"TransferToAuto().Map", func(in *rdd.RDD) *rdd.RDD {
			return in.TransferToAuto().Map("m", func(p rdd.Pair) rdd.Pair { return p }).ReduceByKey("r", 2, sum)
		}, false},
		{"TransferToAuto() in the result stage", func(in *rdd.RDD) *rdd.RDD { return in.ReduceByKey("r", 2, sum).TransferToAuto() }, false},
		{"TransferToAuto()", func(in *rdd.RDD) *rdd.RDD { return in.TransferToAuto().ReduceByKey("r", 2, sum) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lineage := func() *rdd.RDD {
				in := rdd.NewGraph().Input("in", []rdd.InputPartition{
					{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1), rdd.KV("b", 2)}},
					{Host: 1, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 3)}},
				})
				return tc.build(in)
			}
			job, err := BuildJob(lineage())
			if err != nil {
				t.Fatal(err)
			}
			be := &countingBackend{memBackend: NewMemBackend(2)}
			out, err := NewDriver(job, be, DriverConfig{}).Run()
			if !tc.pushes {
				var carrier string
				for _, st := range job.Stages() {
					if len(st.Phases) > 1 {
						carrier = st.Name()
					}
				}
				if err == nil || !strings.Contains(err.Error(), carrier) {
					t.Fatalf("err = %v, want a rejection naming stage %s", err, carrier)
				}
				if n := be.tasks.Load(); n != 0 {
					t.Fatalf("%d tasks ran before the rejection", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canon(slices.Concat(out...)), canon(rdd.CollectLocal(lineage())); got != want {
				t.Fatalf("output %s, want %s", got, want)
			}
			if decs := be.Events.Placements(); len(decs) != 1 || decs[0].Shuffle != job.Stages()[0].OutSpec.ID {
				t.Fatalf("placement decisions %+v, want one, for the shuffle", decs)
			}
		})
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
	be := &flakyBackend{memBackend: NewMemBackend(2), failFirst: MaxAttempts - 1}
	if _, err := NewDriver(job, be, DriverConfig{}).Run(); err != nil {
		t.Fatalf("%d failures within %d attempts should succeed: %v", MaxAttempts-1, MaxAttempts, err)
	}
	be = &flakyBackend{memBackend: NewMemBackend(2), failFirst: MaxAttempts}
	if _, err := NewDriver(job, be, DriverConfig{}).Run(); err == nil {
		t.Fatalf("%d failures should exhaust %d attempts", MaxAttempts, MaxAttempts)
	}
}

// A value the record codec refuses is refused on every attempt, so its task
// fails once: a 2-partition GroupByKey over a struct value logs one failure
// per task and no retry (not MaxAttempts of each), and the job fails with the
// typed error.
func TestUnsupportedValueFailsTaskOnce(t *testing.T) {
	type point struct{ x, y int }
	parts := make([]rdd.InputPartition, 2)
	for p := range parts {
		parts[p] = rdd.InputPartition{ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", point{p, p})}}
	}
	job, err := BuildJob(rdd.NewGraph().Input("in", parts).GroupByKey("group", 2))
	if err != nil {
		t.Fatal(err)
	}
	be := NewMemBackend(2)
	_, err = NewDriver(job, be, DriverConfig{}).Run()
	var unsupported *rdd.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("err = %v, want *rdd.UnsupportedValueError", err)
	}
	if c := be.Events.Counts(); c.Failed != 2 || c.Retried != 0 {
		t.Fatalf("%d failed and %d retried attempts, want 2 and 0", c.Failed, c.Retried)
	}
}

// flakyBackend fails the first N map-task attempts.
type flakyBackend struct {
	*memBackend
	failFirst int
}

func (b *flakyBackend) RunTask(t Task) (TaskResult, error) {
	if t.Stage.OutSpec != nil && b.failFirst > 0 {
		b.failFirst--
		return TaskResult{}, fmt.Errorf("flaky: injected failure")
	}
	return b.memBackend.RunTask(t)
}

// deadSiteBackend wraps memBackend with a permanently dead site: every
// task attempt there fails, and SiteHealthy reports it unhealthy. The
// driver must steer retried attempts to a healthy site, so jobs complete
// despite the hole. Every attempt takes nap, long enough for attempts that
// may overlap to be seen overlapping.
type deadSiteBackend struct {
	*memBackend
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
	return b.memBackend.RunTask(t)
}

// SiteHealthy implements Backend.
func (b *deadSiteBackend) SiteHealthy(site int) bool { return site != b.dead }

// TestDriverReplacesTasksOffDeadSite checks the SiteHealthy fail-over: with
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
			be := &deadSiteBackend{memBackend: NewMemBackend(3), dead: 0, nap: tc.nap,
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
	be := &allUnhealthyBackend{flakyBackend: &flakyBackend{memBackend: NewMemBackend(2), failFirst: 1}}
	if _, err := NewDriver(job, be, DriverConfig{}).Run(); err != nil {
		t.Fatalf("transient failure with no healthy site should retry in place: %v", err)
	}
}

// allUnhealthyBackend reports every site unhealthy.
type allUnhealthyBackend struct{ *flakyBackend }

func (b *allUnhealthyBackend) SiteHealthy(int) bool { return false }
