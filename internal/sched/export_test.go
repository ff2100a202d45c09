package sched

import "wanshuffle/internal/topology"

// FreeSlots returns the number of idle cores on a host.
func (s *Scheduler) FreeSlots(h topology.HostID) int { return s.freeSlots[h] }

// Dead reports whether a host has been failed.
func (s *Scheduler) Dead(h topology.HostID) bool { return s.dead[h] }
