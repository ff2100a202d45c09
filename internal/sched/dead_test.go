package sched

import (
	"testing"

	"wanshuffle/internal/sim"
	"wanshuffle/internal/topology"
)

func TestMarkDeadStopsAssignment(t *testing.T) {
	clock := sim.NewClock()
	topo := topology.TwoDCMicro()
	s := New(clock, topo, 1)
	s.MarkDead(0)
	if !s.Dead(0) || s.Dead(1) {
		t.Fatal("dead bookkeeping wrong")
	}
	var got topology.HostID = -1
	s.Submit(&Task{
		Name:      "t",
		PrefHosts: []topology.HostID{0},
		Run: func(h topology.HostID, release func()) {
			got = h
			clock.After(1, release)
		},
	})
	clock.Run(0)
	if got == 0 {
		t.Fatal("task placed on dead host")
	}
	if got < 0 {
		t.Fatal("task never placed despite live hosts")
	}
}

func TestReleaseOnDeadHostSwallowed(t *testing.T) {
	clock := sim.NewClock()
	topo := topology.TwoDCMicro()
	s := New(clock, topo, 1)
	var rel func()
	s.Submit(&Task{
		Name:      "victim",
		PrefHosts: []topology.HostID{2},
		Run:       func(_ topology.HostID, release func()) { rel = release },
	})
	clock.Run(0)
	s.MarkDead(2)
	rel() // the task finishes after its host died
	if s.FreeSlots(2) != 0 {
		t.Fatalf("dead host regained slots: %d", s.FreeSlots(2))
	}
}

func TestStrictTaskWaitsOutDeadPref(t *testing.T) {
	clock := sim.NewClock()
	topo := topology.TwoDCMicro()
	s := New(clock, topo, 1)
	s.MarkDead(2)
	var got topology.HostID = -1
	s.Submit(&Task{
		Name:      "strict",
		PrefHosts: []topology.HostID{2, 3},
		Strict:    true,
		Run: func(h topology.HostID, release func()) {
			got = h
			clock.After(1, release)
		},
	})
	clock.Run(0)
	if got != 3 {
		t.Fatalf("strict task placed on %d, want surviving pref 3", got)
	}
}
