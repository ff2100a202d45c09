package sched

import (
	"testing"

	"wanshuffle/internal/sim"
	"wanshuffle/internal/topology"
)

func setup(t *testing.T) (*sim.Clock, *topology.Topology, *Scheduler) {
	t.Helper()
	clock := sim.NewClock()
	topo := topology.TwoDCMicro() // hosts 0,1 in dc-a; 2,3 in dc-b; 2 cores each
	return clock, topo, New(clock, topo, 1)
}

// runFor submits a task that holds its slot for d seconds.
func runFor(clock *sim.Clock, s *Scheduler, name string, prefs []topology.HostID, d float64, onRun func(topology.HostID)) {
	s.Submit(&Task{
		Name:      name,
		PrefHosts: prefs,
		Run: func(h topology.HostID, release func()) {
			if onRun != nil {
				onRun(h)
			}
			clock.After(d, release)
		},
	})
}

func TestPlacesOnPreferredHost(t *testing.T) {
	clock, _, s := setup(t)
	var got topology.HostID = -1
	runFor(clock, s, "t", []topology.HostID{3}, 1, func(h topology.HostID) { got = h })
	clock.Run(0)
	if got != 3 {
		t.Fatalf("placed on %d, want preferred host 3", got)
	}
}

func TestNoPrefsPlacedImmediately(t *testing.T) {
	clock, _, s := setup(t)
	var got topology.HostID = -1
	var at float64 = -1
	runFor(clock, s, "t", nil, 1, func(h topology.HostID) { got = h; at = clock.Now() })
	clock.Run(0)
	if got < 0 || at != 0 {
		t.Fatalf("no-pref task placed on %d at %v, want immediate", got, at)
	}
}

func TestWaitsForPreferredHostThenRelaxesToDC(t *testing.T) {
	clock, _, s := setup(t)
	// Fill both slots of host 2 with long tasks.
	runFor(clock, s, "hog1", []topology.HostID{2}, 100, nil)
	runFor(clock, s, "hog2", []topology.HostID{2}, 100, nil)
	var got topology.HostID = -1
	var at float64
	runFor(clock, s, "waiting", []topology.HostID{2}, 1, func(h topology.HostID) { got = h; at = clock.Now() })
	clock.RunUntil(50)
	// Host 2 busy until t=100; after the host-level wait (3 s) the task
	// should accept host 3 (same DC).
	if got != 3 {
		t.Fatalf("relaxed to host %d, want DC-mate 3", got)
	}
	if at < 3-1e-9 || at > 4 {
		t.Fatalf("relaxed at t=%v, want ~3 (locality wait)", at)
	}
}

func TestRelaxesToAnyAfterBothWaits(t *testing.T) {
	clock, _, s := setup(t)
	// Fill all of dc-b (hosts 2,3).
	for i := 0; i < 4; i++ {
		runFor(clock, s, "hog", []topology.HostID{2, 3}, 100, nil)
	}
	var got topology.HostID = -1
	var at float64
	runFor(clock, s, "waiting", []topology.HostID{2, 3}, 1, func(h topology.HostID) { got = h; at = clock.Now() })
	clock.RunUntil(50)
	if got != 0 && got != 1 {
		t.Fatalf("relaxed to host %d, want dc-a host", got)
	}
	if at < 6-1e-9 || at > 7 {
		t.Fatalf("relaxed at t=%v, want ~6 (both locality waits)", at)
	}
}

func TestSlotAccounting(t *testing.T) {
	clock, topo, s := setup(t)
	if got := s.FreeSlots(0); got != 2 {
		t.Fatalf("initial FreeSlots(0) = %d, want 2", got)
	}
	placed := 0
	runFor(clock, s, "a", []topology.HostID{0}, 5, func(topology.HostID) { placed++ })
	runFor(clock, s, "b", []topology.HostID{0}, 5, func(topology.HostID) { placed++ })
	clock.RunUntil(1)
	if got := s.FreeSlots(0); got != 0 {
		t.Fatalf("FreeSlots(0) while running = %d, want 0", got)
	}
	clock.Run(0)
	if got := s.FreeSlots(0); got != 2 {
		t.Fatalf("FreeSlots(0) after release = %d, want 2", got)
	}
	if placed != 2 {
		t.Fatalf("placed %d tasks, want 2", placed)
	}
	_ = topo
}

func TestQueuedTaskRunsWhenSlotFrees(t *testing.T) {
	clock, _, s := setup(t)
	runFor(clock, s, "a", []topology.HostID{0}, 2, nil)
	runFor(clock, s, "b", []topology.HostID{0}, 2, nil)
	var at float64 = -1
	var got topology.HostID
	runFor(clock, s, "c", []topology.HostID{0}, 1, func(h topology.HostID) { at = clock.Now(); got = h })
	clock.Run(0)
	// c waits for a slot on host 0; both free at t=2 (before the 3 s
	// locality wait expires), so it should run on host 0 at t=2.
	if got != 0 || at != 2 {
		t.Fatalf("queued task ran on %d at %v, want host 0 at t=2", got, at)
	}
}

func TestFIFOAmongEqualTasks(t *testing.T) {
	clock, _, s := setup(t)
	// One slot available: host 0 only (fill host 0's second core and all
	// of host 1..3 with hogs).
	runFor(clock, s, "hog0", []topology.HostID{0}, 100, nil)
	for _, h := range []topology.HostID{1, 1, 2, 2, 3, 3} {
		runFor(clock, s, "hog", []topology.HostID{h}, 100, nil)
	}
	var order []string
	for _, name := range []string{"first", "second"} {
		name := name
		runFor(clock, s, name, []topology.HostID{0}, 10, func(topology.HostID) { order = append(order, name) })
	}
	clock.RunUntil(30)
	if len(order) == 0 || order[0] != "first" {
		t.Fatalf("order = %v, want FIFO", order)
	}
}

// TestLoadBalancePicksFreestHost pins how load spreads under Spark 1.6's
// random offers: an unconstrained task takes a random free slot, so a host
// is chosen in proportion to its free cores — the half-busy host still gets
// tasks, but fewer than any fully free one.
func TestLoadBalancePicksFreestHost(t *testing.T) {
	picks := map[topology.HostID]int{}
	for seed := int64(0); seed < 700; seed++ {
		clock := sim.NewClock()
		s := New(clock, topology.TwoDCMicro(), seed)
		// Occupy one of host 0's two cores: 7 free slots are left, one of
		// them on host 0.
		runFor(clock, s, "hog", []topology.HostID{0}, 100, nil)
		runFor(clock, s, "free", nil, 1, func(h topology.HostID) { picks[h]++ })
		clock.RunUntil(10)
	}
	if picks[0] == 0 {
		t.Fatal("the half-busy host never got the task: offers are not random over free slots")
	}
	for h := topology.HostID(1); h <= 3; h++ {
		if picks[h] <= picks[0] {
			t.Fatalf("host %d (2 free cores) got %d tasks, half-busy host 0 got %d: picks = %v", h, picks[h], picks[0], picks)
		}
	}
}

func TestSubmitToAuxPrefPanics(t *testing.T) {
	clock := sim.NewClock()
	topo := topology.SixRegionEC2()
	s := New(clock, topo, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for aux pref host")
		}
	}()
	s.Submit(&Task{Name: "bad", PrefHosts: []topology.HostID{topo.MasterHost}, Run: func(topology.HostID, func()) {}})
}

func TestNilRunPanics(t *testing.T) {
	_, _, s := setup(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil Run")
		}
	}()
	s.Submit(&Task{Name: "bad"})
}

func TestDoubleReleasePanics(t *testing.T) {
	clock, _, s := setup(t)
	var rel func()
	s.Submit(&Task{Name: "t", Run: func(_ topology.HostID, release func()) { rel = release }})
	clock.Run(0)
	rel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	rel()
}

func TestAuxHostsGetNoSlots(t *testing.T) {
	clock := sim.NewClock()
	topo := topology.SixRegionEC2()
	s := New(clock, topo, 1)
	if got := s.FreeSlots(topo.MasterHost); got != 0 {
		t.Fatalf("master host has %d slots, want 0", got)
	}
	// 48 tasks fill every worker core; the 49th must queue.
	for i := 0; i < 49; i++ {
		runFor(clock, s, "t", nil, 50, nil)
	}
	clock.RunUntil(1)
	if got := s.QueueLen(); got != 1 {
		t.Fatalf("QueueLen = %d, want 1 (48 cores total)", got)
	}
}

func TestManyTasksDrainDeterministically(t *testing.T) {
	run := func() []topology.HostID {
		clock, _, s := setup(t)
		var hosts []topology.HostID
		for i := 0; i < 40; i++ {
			prefs := []topology.HostID{topology.HostID(i % 4)}
			runFor(clock, s, "t", prefs, 1.5, func(h topology.HostID) { hosts = append(hosts, h) })
		}
		clock.Run(0)
		return hosts
	}
	a, b := run(), run()
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("drained %d/%d tasks, want 40", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("scheduler placement nondeterministic")
		}
	}
}
