// Package sched implements a Spark-standalone-like task scheduler over the
// simulated cluster: per-host core slots, FIFO task queues, host-level
// preferredLocations, and delay scheduling that relaxes placement from
// preferred host to preferred datacenter to anywhere as a task waits
// (Spark's PROCESS/NODE/RACK/ANY locality ladder, with datacenter standing
// in for rack).
//
// This is the component the paper deliberately leaves untouched: transferTo
// steers placement purely through preferredLocations, and the scheduler
// keeps making "coarse-grained and greedy" decisions (Sec. V-A).
package sched

import (
	"fmt"

	"wanshuffle/internal/sim"
	"wanshuffle/internal/topology"
)

// Delay-scheduling waits, in virtual seconds.
const (
	// localityWaitHost is how long a task holds out for a preferred host
	// before accepting any host in a preferred datacenter. Spark's default
	// spark.locality.wait is 3 s.
	localityWaitHost = 3.0
	// localityWaitDC is the additional wait before accepting any host at
	// all.
	localityWaitDC = 3.0
)

// Task is a unit of schedulable work. Run is invoked exactly once, when a
// slot is assigned; the callee must call release() when the slot can be
// freed.
type Task struct {
	Name string
	// PrefHosts are the preferred hosts, best first. Empty means no
	// preference (immediately eligible anywhere).
	PrefHosts []topology.HostID
	// Strict pins the task to PrefHosts forever: locality never relaxes.
	// Used for transferTo receiver tasks, whose whole point is running in
	// the aggregator datacenter.
	Strict bool
	// Run receives the chosen host and a release callback.
	Run func(host topology.HostID, release func())

	submitAt float64
	seq      uint64
}

// Scheduler assigns tasks to host slots. Construct with New.
type Scheduler struct {
	clock *sim.Clock
	topo  *topology.Topology

	freeSlots []int
	dead      []bool
	queue     []*Task
	seq       uint64
	recheck   sim.Timer
	kicking   bool
	// rng orders resource offers the way Spark 1.6's TaskSchedulerImpl
	// does, randomly (bestFree); seeded, so runs stay deterministic.
	rng sim.RNG

	// lastLaunch is when any task last launched. Spark's delay scheduler
	// (TaskSetManager.lastLaunchTime) resets its locality-wait timer on
	// every launch, so a queue that keeps making progress never relaxes
	// locality; only a genuine stall does.
	lastLaunch float64
}

// New builds a scheduler with every worker's cores free; seed drives its
// randomized resource offers.
func New(clock *sim.Clock, topo *topology.Topology, seed int64) *Scheduler {
	s := &Scheduler{
		clock:     clock,
		topo:      topo,
		freeSlots: make([]int, topo.NumHosts()),
		dead:      make([]bool, topo.NumHosts()),
		rng:       sim.Stream(seed, "sched.offers"),
	}
	for _, h := range topo.Hosts {
		if !h.Aux {
			s.freeSlots[h.ID] = h.Cores
		}
	}
	return s
}

// Submit enqueues a task for placement.
func (s *Scheduler) Submit(t *Task) {
	if t.Run == nil {
		panic("sched: task without Run")
	}
	for _, h := range t.PrefHosts {
		if s.topo.Host(h).Aux {
			panic(fmt.Sprintf("sched: task %q prefers aux host %d", t.Name, h))
		}
	}
	t.submitAt = s.clock.Now()
	s.seq++
	t.seq = s.seq
	s.queue = append(s.queue, t)
	s.kick()
}

// MarkDead removes a host from scheduling: its free slots vanish and
// running-task releases are swallowed. Queued tasks simply stop matching
// it.
func (s *Scheduler) MarkDead(h topology.HostID) {
	s.dead[h] = true
	s.freeSlots[h] = 0
	s.kick()
}

// QueueLen returns the number of unplaced tasks.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// localityLevel is the loosest placement a task currently accepts.
type localityLevel int

const (
	levelHost localityLevel = iota
	levelDC
	levelAny
)

func (s *Scheduler) levelOf(t *Task) localityLevel {
	if len(t.PrefHosts) == 0 {
		return levelAny
	}
	if t.Strict {
		return levelHost
	}
	since := t.submitAt
	if s.lastLaunch > since {
		since = s.lastLaunch
	}
	waited := s.clock.Now() - since
	switch {
	case waited < localityWaitHost:
		return levelHost
	case waited < localityWaitHost+localityWaitDC:
		return levelDC
	default:
		return levelAny
	}
}

// hostFor finds a free host for a task at its current locality level, or
// -1. Preference order: a preferred host, then (level ≥ DC) a random free
// slot in a preferred host's datacenter, then (level any) a random free
// slot cluster-wide (bestFree). A dead host has no free slots (MarkDead), so
// it is never chosen.
func (s *Scheduler) hostFor(t *Task, level localityLevel) topology.HostID {
	for _, h := range t.PrefHosts {
		if s.freeSlots[h] > 0 {
			return h
		}
	}
	if level >= levelDC && len(t.PrefHosts) > 0 {
		prefDCs := map[topology.DCID]bool{}
		for _, h := range t.PrefHosts {
			prefDCs[s.topo.DCOf(h)] = true
		}
		if h := s.bestFree(func(h topology.HostID) bool { return prefDCs[s.topo.DCOf(h)] }); h >= 0 {
			return h
		}
	}
	if level >= levelAny {
		if h := s.bestFree(func(topology.HostID) bool { return true }); h >= 0 {
			return h
		}
	}
	return -1
}

// bestFree reproduces Spark 1.6's TaskSchedulerImpl, which shuffles resource
// offers randomly: a task placed below host locality lands on a random free
// slot among the hosts ok admits (so a host is picked with weight its free
// slots), not on the most-free host. This is what scatters preference-free
// reducers across datacenters in the vanilla baseline.
func (s *Scheduler) bestFree(ok func(topology.HostID) bool) topology.HostID {
	total := 0
	for id := range s.freeSlots {
		h := topology.HostID(id)
		if s.freeSlots[h] > 0 && ok(h) {
			total += s.freeSlots[h]
		}
	}
	if total == 0 {
		return -1
	}
	pick := s.rng.Intn(total)
	for id := range s.freeSlots {
		h := topology.HostID(id)
		if s.freeSlots[h] > 0 && ok(h) {
			pick -= s.freeSlots[h]
			if pick < 0 {
				return h
			}
		}
	}
	return -1
}

// kick makes a placement pass: FIFO over the queue, placing every task that
// has an acceptable free host at its current locality level. If tasks
// remain queued with free slots available, a recheck fires when the oldest
// task's level next relaxes.
func (s *Scheduler) kick() {
	if s.kicking {
		// Run callbacks can Submit or release reentrantly; the outer pass
		// will pick the changes up on its next iteration.
		return
	}
	s.kicking = true
	defer func() { s.kicking = false }()

	for placed := true; placed; {
		placed = false
		for i := 0; i < len(s.queue); i++ {
			t := s.queue[i]
			h := s.hostFor(t, s.levelOf(t))
			if h < 0 {
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			i--
			s.freeSlots[h]--
			s.lastLaunch = s.clock.Now()
			released := false
			release := func() {
				if released {
					panic(fmt.Sprintf("sched: double release by task %q", t.Name))
				}
				released = true
				if !s.dead[h] {
					s.freeSlots[h]++
				}
				s.kick()
			}
			t.Run(h, release)
			placed = true
		}
	}
	s.scheduleRecheck()
}

func (s *Scheduler) scheduleRecheck() {
	s.recheck.Cancel()
	if len(s.queue) == 0 {
		return
	}
	anyFree := false
	for _, n := range s.freeSlots {
		if n > 0 {
			anyFree = true
			break
		}
	}
	if !anyFree {
		return
	}
	// Earliest future level transition among queued tasks.
	next := -1.0
	now := s.clock.Now()
	for _, t := range s.queue {
		if len(t.PrefHosts) == 0 || t.Strict {
			continue
		}
		since := t.submitAt
		if s.lastLaunch > since {
			since = s.lastLaunch
		}
		for _, edge := range []float64{localityWaitHost, localityWaitHost + localityWaitDC} {
			at := since + edge
			if at > now+1e-12 && (next < 0 || at < next) {
				next = at
			}
		}
	}
	if next < 0 {
		return
	}
	s.recheck = s.clock.At(next, s.kick)
}
