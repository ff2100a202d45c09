package exec

import (
	"fmt"
	"sort"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// HostFailure kills a worker at a virtual time: its slots vanish, its
// stored shuffle output and cached partitions are lost, tasks reaching
// their next checkpoint on it fail over, and a push from it that has not
// landed is lost. This models whole-node failure, the case where the
// paper's Push/Aggregate pays twice: pushed shuffle input survives the
// death of the mapper that produced it once it has landed, while
// fetch-based shuffle must re-run the lost map tasks (Spark's FetchFailed
// recovery).
type HostFailure struct {
	Host topology.HostID
	// At is the virtual time of the failure, relative to engine start.
	At float64
}

// scheduleHostFailures arms the configured failures.
func (e *Engine) scheduleHostFailures() {
	for _, f := range e.cfg.HostFailures {
		f := f
		e.Clock.At(f.At, func() { e.failHost(f.Host) })
	}
}

// failHost marks a worker dead and drops its stored state.
func (e *Engine) failHost(h topology.HostID) {
	if e.deadHosts[h] {
		return
	}
	e.deadHosts[h] = true
	e.sched.MarkDead(h)
	e.trace(trace.Span{Kind: trace.KindFail, Host: h, Start: e.Clock.Now(), End: e.Clock.Now(), Label: "host failed"})

	// Shuffle output stored on the host is gone (the "shuffle files" of
	// Sec. II-A live on local disk).
	e.reg.DropSite(int(h))
	// Cached partitions on the host are gone too.
	ids := make([]int, 0, len(e.cache))
	for id := range e.cache {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		for part, cp := range e.cache[id] {
			if cp != nil && cp.host == h {
				e.cache[id][part] = nil
			}
		}
	}
}

// isDead reports host liveness.
func (e *Engine) isDead(h topology.HostID) bool { return e.deadHosts[h] }

// liveReplica redirects a read whose preferred holder died: HDFS keeps
// replicas, so a live host (same datacenter first) serves the block.
func (e *Engine) liveReplica(h topology.HostID) topology.HostID {
	if !e.deadHosts[h] {
		return h
	}
	dc := e.Topo.DCOf(h)
	for _, cand := range e.Topo.HostsIn(dc) {
		if !e.deadHosts[cand] {
			return cand
		}
	}
	for _, cand := range e.Topo.Workers() {
		if !e.deadHosts[cand] {
			return cand
		}
	}
	return h // no replicas left; the read will hang on a dead host
}

// recoverShuffle starts recomputing a shuffle's lost map outputs and
// reports whether any are missing. A missing part whose producer's partDone
// is false is already being recomputed, so it is not submitted twice.
func (e *Engine) recoverShuffle(shuffleID int) bool {
	missing := e.reg.Missing(shuffleID)
	producer, ok := e.producers[shuffleID]
	if !ok {
		panic("exec: missing producer stage for shuffle recovery")
	}
	for _, m := range missing {
		if !producer.partDone[m] {
			continue
		}
		// Reopen the map task: the stage's completion bookkeeping rolls
		// back for this partition and a fresh attempt is submitted.
		producer.partDone[m] = false
		producer.tasksDone--
		e.submitTask(&taskRun{ss: producer, part: m, phase: producer.startPhase, attempt: 1})
	}
	return len(missing) > 0
}

// parkOnLostShuffle is where a task about to read shuffle output decides to
// wait for it (Spark's FetchFailed). If a shuffle that n reads has lost
// output, it starts recomputing every lost map output there, gives its
// slot back and parks on the first such shuffle, and reports true. The
// parked attempt is neither a retry nor counted against plan.MaxAttempts:
// unpark submits it again, same attempt number, once the shuffle is whole.
func (e *Engine) parkOnLostShuffle(t *taskRun, host topology.HostID, release func(), n need) bool {
	if n.kind != needShuffleRead {
		return false
	}
	lost := -1
	for di := range n.node.Deps {
		if id := n.node.Deps[di].Shuffle.ID; e.recoverShuffle(id) && lost < 0 {
			lost = id
		}
	}
	if lost < 0 {
		return false
	}
	release()
	e.taskEvent(obs.PhaseFailed, t, int(e.Topo.DCOf(host)), fmt.Errorf("shuffle %d output lost", lost))
	if e.parked == nil {
		e.parked = make(map[int][]*taskRun)
	}
	e.parked[lost] = append(e.parked[lost], t)
	return true
}

// unpark resubmits the tasks parked on a shuffle once every map output of
// it is registered again. Output lost since they parked (a later host
// failure) is reopened here, since no other registration may come to wake
// them.
func (e *Engine) unpark(shuffleID int) {
	parked := e.parked[shuffleID]
	if len(parked) == 0 || e.recoverShuffle(shuffleID) {
		return
	}
	delete(e.parked, shuffleID)
	for _, t := range parked {
		e.submitTask(t)
	}
}
