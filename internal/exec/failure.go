package exec

import (
	"sort"

	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// HostFailure kills a worker at a virtual time: its slots vanish, its
// stored shuffle output and cached partitions are lost, and tasks reaching
// their next checkpoint on it fail over. This models whole-node failure,
// the case where the paper's Push/Aggregate pays twice: pushed shuffle
// input survives the death of the mapper that produced it, while
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
	e.Sched.MarkDead(h)
	e.trace(trace.Span{Kind: trace.KindFail, Host: h, Start: e.Clock.Now(), End: e.Clock.Now(), Label: "host failed"})

	// Shuffle output stored on the host is gone (the "shuffle files" of
	// Sec. II-A live on local disk).
	lost := e.reg.OutputsOn(h)
	for _, ref := range lost {
		e.reg.Invalidate(ref[0], ref[1])
	}
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

// recoverShuffle triggers recomputation of a shuffle's missing map outputs
// (after invalidation). Idempotent per partition: a recompute already in
// flight is not duplicated. Returns true if recovery is pending.
func (e *Engine) recoverShuffle(shuffleID int) bool {
	// First invalidate outputs still registered on dead hosts.
	numMaps := e.reg.NumMaps(shuffleID)
	for m := 0; m < numMaps; m++ {
		if out := e.reg.Output(shuffleID, m); out != nil && e.deadHosts[out.Host] {
			e.reg.Invalidate(shuffleID, m)
		}
	}
	missing := e.reg.Missing(shuffleID)
	if len(missing) == 0 {
		return false
	}
	producer, ok := e.producers[shuffleID]
	if !ok {
		panic("exec: missing producer stage for shuffle recovery")
	}
	for _, m := range missing {
		key := recoveryKey{shuffleID, m}
		if e.recovering[key] {
			continue
		}
		e.recovering[key] = true
		// Reopen the map task: the stage's completion bookkeeping rolls
		// back for this partition and a fresh attempt is submitted.
		producer.partDone[m] = false
		producer.tasksDone--
		e.submitTask(&taskRun{ss: producer, part: m, phase: producer.startPhase, attempt: 1})
	}
	return true
}

type recoveryKey struct{ shuffleID, mapPart int }

// recoveryDone clears the in-flight marker once a recomputed map output is
// registered again.
func (e *Engine) recoveryDone(shuffleID, mapPart int) {
	delete(e.recovering, recoveryKey{shuffleID, mapPart})
}
