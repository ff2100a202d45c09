package sched

import (
	"testing"

	"wanshuffle/internal/sim"
	"wanshuffle/internal/topology"
)

func TestRandomOffersScatterNoPrefTasks(t *testing.T) {
	topo := topology.SixRegionEC2()
	run := func(seed int64) map[topology.HostID]int {
		clock := sim.NewClock()
		s := New(clock, topo, seed)
		placed := map[topology.HostID]int{}
		for i := 0; i < 16; i++ {
			s.Submit(&Task{
				Name: "t",
				Run: func(h topology.HostID, release func()) {
					placed[h]++
					clock.After(100, release)
				},
			})
		}
		clock.RunUntil(1)
		return placed
	}
	a := run(1)
	b := run(1)
	c := run(2)
	if len(a) < 4 {
		t.Fatalf("random offers placed 16 tasks on only %d hosts", len(a))
	}
	same := func(x, y map[topology.HostID]int) bool {
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if y[k] != v {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different random placements")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical random placements")
	}
}

func TestRandomOffersRespectHostPrefs(t *testing.T) {
	topo := topology.SixRegionEC2()
	clock := sim.NewClock()
	s := New(clock, topo, 3)
	var got topology.HostID = -1
	s.Submit(&Task{
		Name:      "pinned",
		PrefHosts: []topology.HostID{5},
		Run: func(h topology.HostID, release func()) {
			got = h
			clock.After(1, release)
		},
	})
	clock.RunUntil(1)
	if got != 5 {
		t.Fatalf("preferred task placed on %d, want 5 (prefs beat random offers)", got)
	}
}

// TestLocalityWaitResetsOnLaunch verifies the Spark TaskSetManager
// behavior: as long as tasks keep launching, queued tasks do not relax
// their locality level.
func TestLocalityWaitResetsOnLaunch(t *testing.T) {
	clock := sim.NewClock()
	topo := topology.TwoDCMicro(2, 0.25)
	s := New(clock, topo, 1)
	// Keep host 0 (2 cores) cycling with a stream of 2-second preferred
	// tasks; a third task also prefers host 0.
	var hosts []topology.HostID
	submitChain := func(n int) {
		for i := 0; i < n; i++ {
			s.Submit(&Task{
				Name:      "chain",
				PrefHosts: []topology.HostID{0},
				Run: func(h topology.HostID, release func()) {
					hosts = append(hosts, h)
					clock.After(2, release)
				},
			})
		}
	}
	submitChain(8) // 4 waves of 2, launches every 2 s < 3 s locality wait
	clock.Run(0)
	for _, h := range hosts {
		if h != 0 {
			t.Fatalf("a chained task relaxed to host %d despite steady launches", h)
		}
	}
}
