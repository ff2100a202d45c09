package exec

import (
	"fmt"
	"slices"
	"sort"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/sched"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// launchStage starts every phase-0 task of a ready stage.
func (e *Engine) launchStage(ss *stageState) {
	if ss.launched {
		return
	}
	ss.launched = true
	e.log.Debug("exec: stage starting", "stage", ss.st.Name(), "id", ss.st.ID, "tasks", ss.st.NumTasks, "t", e.Clock.Now())
	ss.span = StageSpan{ID: ss.st.ID, Name: ss.st.Name(), Start: e.Clock.Now()}
	ss.phaseDone = make([]int, len(ss.st.Phases))
	ss.heldHandoffs = make([][]func(), len(ss.st.Phases))
	ss.partDone = make([]bool, ss.st.NumTasks)
	e.resolveAggregator(ss)
	ss.startPhase = e.resumePhase(ss)
	for part := 0; part < ss.st.NumTasks; part++ {
		e.submitTask(&taskRun{ss: ss, part: part, phase: ss.startPhase, attempt: 1})
	}
}

// resumePhase returns the first phase that must actually run: leading
// phases whose transfer boundary node is cache-materialized on every
// partition are skipped, and the next phase reads the cached copies
// instead of receiving fresh pushes.
func (e *Engine) resumePhase(ss *stageState) int {
	start := 0
	for k := 0; k < len(ss.st.Phases)-1; k++ {
		node := ss.st.Phases[k].TransferNode
		if node == nil || !node.Cached {
			break
		}
		parts, ok := e.cache[node.ID]
		if !ok {
			break
		}
		all := true
		for _, cp := range parts {
			if cp == nil {
				all = false
				break
			}
		}
		if !all {
			break
		}
		start = k + 1
	}
	return start
}

// claimPartDone marks a partition's logical task complete; a second
// finisher of the same partition loses and must discard its work.
func (e *Engine) claimPartDone(ss *stageState, part int) bool {
	if ss.partDone[part] {
		return false
	}
	ss.partDone[part] = true
	return true
}

// resolveAggregator picks the stage's automatic aggregator datacenter
// (Sec. IV-D): it measures the stage's input bytes per DC and hands them
// to the shared plan.ChooseAggregator. The decision is recorded on the job
// for the run report and mirrored into the metrics registry.
func (e *Engine) resolveAggregator(ss *stageState) {
	auto := false
	for _, ph := range ss.st.Phases {
		if ph.Transfer != nil && ph.Transfer.Auto {
			auto = true
		}
	}
	if !auto {
		return
	}
	byDC := make([]float64, e.Topo.NumDCs())
	for _, src := range ss.st.Sources {
		for i := range src.Input {
			byDC[e.Topo.DCOf(src.Input[i].Host)] += src.Input[i].ModeledBytes
		}
	}
	for _, b := range ss.st.Boundaries {
		if parts, ok := e.cache[b.ID]; ok && b.Cached {
			allCached := true
			for _, cp := range parts {
				if cp == nil {
					allCached = false
					break
				}
			}
			if allCached {
				for _, cp := range parts {
					byDC[e.Topo.DCOf(cp.host)] += cp.modeled
				}
				continue
			}
		}
		for di := range b.Deps {
			hostBytes := e.reg.HostBytes(b.Deps[di].Shuffle.ID)
			for _, host := range sortedHosts(hostBytes) {
				byDC[e.Topo.DCOf(host)] += hostBytes[host]
			}
		}
	}
	shuffleID := -1
	if ss.st.OutSpec != nil {
		shuffleID = ss.st.OutSpec.ID
	}
	var dec obs.PlacementDecision
	ss.aggRank, dec = plan.ChooseAggregator[topology.DCID](shuffleID, ss.st.ID, byDC,
		e.cfg.AggregatorPolicy, e.LinkCosts(), e.aggRNG.Shuffle,
		func(dc int) string { return e.Topo.DCs[dc].Name })
	ss.aggResolved = true
	if len(ss.aggRank) > 0 {
		ss.job.placements = append(ss.job.placements, dec)
		plan.RecordPlacement(e.Events.Registry(), e.cfg.AggregatorPolicy.String(), dec)
	}
}

// sortedHosts returns the hosts of a per-host byte map in ascending order.
// Float sums over such a map must not follow Go's randomized map order, or
// the same seed stops producing the same run.
func sortedHosts(m map[topology.HostID]float64) []topology.HostID {
	hosts := make([]topology.HostID, 0, len(m))
	for h := range m {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts)
	return hosts
}

// transferTarget resolves the destination datacenter of one partition's
// push. Auto transfers spread over the policy's top-K ranked DCs.
func (e *Engine) transferTarget(ss *stageState, spec *rdd.TransferSpec, part int) topology.DCID {
	if !spec.Auto {
		return spec.DC
	}
	if !ss.aggResolved {
		panic(fmt.Sprintf("exec: %s: auto transfer without resolved aggregator", ss.st.Name()))
	}
	return plan.SpreadTopK(ss.aggRank, spec.K, part)
}

// taskRun is one attempt of one partition's work, starting at a given
// phase. Phase 0 acquires the stage's inputs; later phases are receiver
// tasks fed by a push from the previous phase.
type taskRun struct {
	ss      *stageState
	phase   int
	part    int
	attempt int
	// receiver marks a transferTo receiver task fed by a push.
	receiver bool
	// bound carries the previous phase's output keyed by the transfer
	// node's RDD ID (nil for phase 0).
	bound map[int]partData
	// push describes the pending transfer into this receiver task.
	pushFrom  topology.HostID
	pushBytes float64
	// spanID is this attempt's own span (allocated lazily); parentSpan is
	// the span that spawned it (the previous phase's task), and linkSpan
	// the push-send a receiver attempt installed.
	spanID     trace.SpanID
	parentSpan trace.SpanID
	linkSpan   trace.SpanID
}

// spanFor lazily allocates an attempt's own span ID.
func (e *Engine) spanFor(t *taskRun) trace.SpanID {
	if t.spanID == 0 {
		t.spanID = e.ids.Next()
	}
	return t.spanID
}

func (t *taskRun) name() string {
	return fmt.Sprintf("%s/p%d/t%d#%d", t.ss.st.Name(), t.phase, t.part, t.attempt)
}

// taskEvent reports one lifecycle transition of a task attempt to the
// engine's collector. Site is the datacenter index of the placed host (the
// simulator's unit of placement), or -1 before placement.
func (e *Engine) taskEvent(phase obs.TaskPhase, t *taskRun, site int, err error) {
	ev := obs.TaskEvent{
		Phase: phase, Stage: t.ss.st.ID, StageName: t.ss.st.Name(),
		Part: t.part, Site: site, Attempt: t.attempt, Time: e.Clock.Now(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	e.Events.OnTask(ev)
	switch phase {
	case obs.PhaseFailed:
		e.log.Warn("exec: task attempt failed", "task", t.name(), "site", site, "t", ev.Time, "err", ev.Err)
	case obs.PhaseRetried:
		e.log.Debug("exec: task retried", "task", t.name(), "t", ev.Time)
	}
}

func (e *Engine) submitTask(t *taskRun) {
	t.ss.job.attempts++
	e.taskEvent(obs.PhaseScheduled, t, -1, nil)
	var prefs []topology.HostID
	strict := false
	switch {
	case t.ss.job.pinDC != nil:
		// Centralized baseline: every task stays in the central DC.
		prefs, strict = e.Topo.HostsIn(*t.ss.job.pinDC), true
	case t.receiver:
		// Receiver task: pinned to the aggregator datacenter.
		target := e.transferTarget(t.ss, t.ss.st.Phases[t.phase-1].Transfer, t.part)
		prefs, strict = e.Topo.HostsIn(target), true
	default:
		prefs = e.prefsFor(t.ss, t.part)
	}
	e.Sched.Submit(&sched.Task{
		Name:      t.name(),
		PrefHosts: prefs,
		Strict:    strict,
		Run: func(host topology.HostID, release func()) {
			e.runTask(t, host, release)
		},
	})
}

// prefsFor derives preferredLocations for a phase-0 task: hosts of its
// source and cached partitions, plus hosts holding at least
// reducerLocalityFraction of its shuffle input (Spark's reducer locality
// rule). Hosts are ordered by bytes held.
func (e *Engine) prefsFor(ss *stageState, part int) []topology.HostID {
	if e.cfg.PinReducersDC != nil && len(ss.st.Boundaries) > 0 {
		// Keep byte-ordered locality among the pinned DC's hosts so
		// reducers still land next to their shuffle input.
		pinned := *e.cfg.PinReducersDC
		var inDC, rest []topology.HostID
		for _, h := range e.locality(ss, part) {
			if e.Topo.DCOf(h) == pinned {
				inDC = append(inDC, h)
			}
		}
		for _, h := range e.Topo.HostsIn(pinned) {
			seen := false
			for _, got := range inDC {
				if got == h {
					seen = true
					break
				}
			}
			if !seen {
				rest = append(rest, h)
			}
		}
		return append(inDC, rest...)
	}
	return e.locality(ss, part)
}

// locality derives byte-ordered preferred hosts for a stage-entry task.
func (e *Engine) locality(ss *stageState, part int) []topology.HostID {
	var needs []need
	e.walkNeeds(ss.st.Phases[ss.startPhase].Top, part, nil, &needs)
	byHost := map[topology.HostID]float64{}
	for _, n := range needs {
		switch n.kind {
		case needSource, needCached:
			byHost[n.host] += n.modeled
		case needShuffleRead:
			for di := range n.node.Deps {
				spec := n.node.Deps[di].Shuffle
				hostBytes := e.reg.ReducerHostBytes(spec.ID, part)
				hosts := sortedHosts(hostBytes)
				var total float64
				for _, h := range hosts {
					total += hostBytes[h]
				}
				for _, h := range hosts {
					if b := hostBytes[h]; total > 0 && b >= reducerLocalityFraction*total {
						byHost[h] += b
					}
				}
			}
		}
	}
	hosts := make([]topology.HostID, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		if byHost[hosts[i]] != byHost[hosts[j]] {
			return byHost[hosts[i]] > byHost[hosts[j]]
		}
		return hosts[i] < hosts[j]
	})
	return hosts
}

// runTask executes one placed task attempt: acquire (or receive) inputs,
// compute, and hand off (register shuffle output, push to the next phase,
// or deliver results).
func (e *Engine) runTask(t *taskRun, host topology.HostID, release func()) {
	start := e.Clock.Now()
	e.taskEvent(obs.PhaseStarted, t, int(e.Topo.DCOf(host)), nil)
	if t.ss.partDone[t.part] {
		// The partition finished while this attempt was queued.
		release()
		return
	}
	e.Clock.After(taskOverhead, func() {
		if t.receiver {
			e.receiveThenCompute(t, host, release, start)
			return
		}
		e.acquireThenCompute(t, host, release, start)
	})
}

// receiveThenCompute handles a receiver task: accept the push flow, spill
// to disk, then continue the phase chain.
func (e *Engine) receiveThenCompute(t *taskRun, host topology.HostID, release func(), start float64) {
	from := t.pushFrom
	pushStart := e.Clock.Now()
	pushID := e.ids.Next()
	t.linkSpan = pushID // the receiver's compute span consumed this send
	e.Net.StartFlow(from, host, t.pushBytes, TagPush, func() {
		e.trace(trace.Span{
			Kind: trace.KindPush, ID: pushID, Parent: t.parentSpan,
			Host: from, Stage: t.ss.st.ID, Part: t.part,
			SrcSite: e.siteName(from), DstSite: e.siteName(host), Bytes: t.pushBytes,
			Start: pushStart, End: e.Clock.Now(),
		})
		e.Clock.After(t.pushBytes/diskBps, func() {
			e.computePhase(t, host, release, start)
		})
	})
}

// acquireThenCompute fetches a phase-0 task's inputs: local disk reads plus
// concurrent network flows for remote sources, caches, and shuffle shards
// (the fetch-based all-to-all burst).
// recoveryPoll is how often a blocked shuffle read re-checks for recovered
// map output.
const recoveryPoll = 1.0

func (e *Engine) acquireThenCompute(t *taskRun, host topology.HostID, release func(), start float64) {
	var needs []need
	e.walkNeeds(t.ss.st.Phases[t.phase].Top, t.part, t.bound, &needs)

	// Lost shuffle output (host failure) must be recomputed before this
	// read can proceed: trigger recovery and hold the slot until the map
	// side refills (Spark fails the stage and waits; holding the reducer
	// is the event-level equivalent).
	recoveryPending := false
	for _, n := range needs {
		if n.kind != needShuffleRead {
			continue
		}
		for di := range n.node.Deps {
			if e.recoverShuffle(n.node.Deps[di].Shuffle.ID) {
				recoveryPending = true
			}
		}
	}
	if recoveryPending {
		e.Clock.After(recoveryPoll, func() { e.acquireThenCompute(t, host, release, start) })
		return
	}

	var diskBytes float64
	type remote struct {
		from  topology.HostID
		bytes float64
		tag   string
	}
	var remotes []remote
	isReduce := false
	fetchShuffle := 0
	for _, n := range needs {
		switch n.kind {
		case needSource:
			src := e.liveReplica(n.host) // HDFS replica if the holder died
			if src == host {
				diskBytes += n.modeled
			} else {
				remotes = append(remotes, remote{src, n.modeled, TagInput})
			}
		case needCached:
			if n.host != host {
				remotes = append(remotes, remote{n.host, n.modeled, TagCache})
			}
		case needShuffleRead:
			isReduce = true
			for di := range n.node.Deps {
				spec := n.node.Deps[di].Shuffle
				if fetchShuffle == 0 {
					fetchShuffle = spec.ID
				}
				for _, sh := range e.reg.Shards(spec.ID, t.part) {
					if sh.ModeledBytes <= 0 {
						continue
					}
					if sh.Host == host {
						diskBytes += sh.ModeledBytes
					} else {
						remotes = append(remotes, remote{sh.Host, sh.ModeledBytes, TagShuffle})
					}
				}
			}
		}
	}

	acquireStart := e.Clock.Now()
	pending := 1 + len(remotes) // disk read counts as one
	finish := func() {
		pending--
		if pending > 0 {
			return
		}
		if len(remotes) > 0 || diskBytes > 0 {
			kind := trace.KindInput
			if isReduce {
				kind = trace.KindFetch
			}
			// Attribute the acquire to the heaviest remote source site
			// (reads from the local site when everything was local).
			srcBytes := map[topology.HostID]float64{}
			total := diskBytes
			for _, r := range remotes {
				srcBytes[r.from] += r.bytes
				total += r.bytes
			}
			src, srcMax := host, 0.0
			for h, b := range srcBytes {
				if b > srcMax || (b == srcMax && h < src) {
					src, srcMax = h, b
				}
			}
			e.trace(trace.Span{
				Kind: kind, ID: e.ids.Next(), Parent: e.spanFor(t),
				Host: host, Stage: t.ss.st.ID, Part: t.part, Shuffle: fetchShuffle,
				SrcSite: e.siteName(src), DstSite: e.siteName(host), Bytes: total,
				Start: acquireStart, End: e.Clock.Now(),
			})
		}
		e.computePhase(t, host, release, start)
	}
	for _, r := range remotes {
		e.Net.StartFlow(r.from, host, r.bytes, r.tag, finish)
	}
	e.Clock.After(diskBytes/diskBps, finish)
}

// computePhase evaluates the phase's records, models the compute duration,
// optionally injects a reduce failure, then posts the output.
func (e *Engine) computePhase(t *taskRun, host topology.HostID, release func(), start float64) {
	if t.ss.partDone[t.part] {
		// Another attempt already finished this partition.
		release()
		return
	}
	if e.hostLost(t, host, release) {
		return
	}
	st := t.ss.st
	phase := st.Phases[t.phase]
	bound := t.bound
	if bound == nil {
		bound = map[int]partData{}
	}

	var cost float64
	// Aggregate shuffle boundaries reachable by this phase first.
	var needs []need
	e.walkNeeds(phase.Top, t.part, bound, &needs)
	isReduce := false
	for _, n := range needs {
		if n.kind == needShuffleRead {
			isReduce = true
			// The fetch may have raced a host failure (Spark's
			// FetchFailed): if output went missing, trigger recovery and
			// re-fetch once it is restored.
			for di := range n.node.Deps {
				if e.recoverShuffle(n.node.Deps[di].Shuffle.ID) {
					e.Clock.After(recoveryPoll, func() { e.acquireThenCompute(t, host, release, start) })
					return
				}
			}
			if _, ok := bound[n.node.ID]; !ok {
				bound[n.node.ID] = e.aggregateShuffle(n.node, t.part, host, &cost)
			}
		}
	}
	out := e.evaluate(phase.Top, t.part, host, bound, &cost)

	// Map-side combine runs before the push when it can (Sec. IV-C3): at the
	// end of the last phase that computes anything, whether it runs on the
	// mapper, inline or as a receiver.
	if spec := st.OutSpec; spec != nil && spec.CombinesMapSide() && t.phase == max(t.ss.startPhase, combinePhase(st)) {
		combined := rdd.MapSidePrepare(spec, out.records)
		cost += out.modeled * 0.2 // combine pass over the map output
		out = partData{
			records: combined,
			modeled: scaleTo(rdd.SizeOfAll(combined), out.realBytes(), out.modeled),
		}
	}

	dur := cost / e.cfg.ComputeBps * e.noise()
	computeStart := e.Clock.Now()

	kind := trace.KindMap
	switch {
	case t.receiver:
		kind = trace.KindReceive
	case isReduce:
		kind = trace.KindReduce
	}

	// Failure injection applies to shuffle-reading (reduce) tasks.
	if isReduce && t.phase == t.ss.startPhase && !t.receiver {
		if spec, fail := e.shouldFail(t); fail {
			at := dur * spec.AtFrac
			e.Clock.After(at, func() {
				e.trace(trace.Span{Kind: trace.KindFail, ID: e.spanFor(t), Parent: t.parentSpan, Host: host, Stage: st.ID, Part: t.part, Start: computeStart, End: e.Clock.Now(), Label: "failed attempt"})
				release()
				retry := &taskRun{ss: t.ss, part: t.part, phase: t.ss.startPhase, attempt: t.attempt + 1}
				e.retryOrFail(t, retry, host, fmt.Errorf("injected failure"))
			})
			return
		}
	}

	e.Clock.After(dur, func() {
		if e.hostLost(t, host, release) {
			// The host died while this attempt computed: its output is
			// lost with it, so it neither registers nor pushes.
			return
		}
		sp := trace.Span{
			Kind: kind, ID: e.spanFor(t), Parent: t.parentSpan, Link: t.linkSpan,
			Host: host, Stage: st.ID, Part: t.part,
			Bytes: out.modeled, Records: len(out.records),
			Start: computeStart, End: e.Clock.Now(),
		}
		// The final phase registers the stage's map output; mark the span
		// as that shuffle's producer so downstream fetches link back.
		if phase.Transfer == nil && st.OutSpec != nil {
			sp.Shuffle = st.OutSpec.ID
		}
		e.trace(sp)
		e.postPhase(t, host, out, bound, release, start)
	})
}

// combinePhase is the phase after which only transfers remain: a phase
// whose top is the previous phase's transfer node computes nothing. A
// transferTo directly before the shuffle (the automatic embedding) leaves it
// at phase 0; an explicit one below narrow operators moves it past them, so
// the combine folds the records the shuffle actually receives.
func combinePhase(st *dag.Stage) int {
	c := len(st.Phases) - 1
	for c > 0 && st.Phases[c].Top == st.Phases[c-1].TransferNode {
		c--
	}
	return c
}

// shouldFail finds the scripted failure for this attempt, if any.
func (e *Engine) shouldFail(t *taskRun) (FailureSpec, bool) {
	for _, f := range e.cfg.ScriptedFailures {
		attempt := f.Attempt
		if attempt == 0 {
			attempt = 1
		}
		if f.Stage == t.ss.st.Output.Name && f.Part == t.part && attempt == t.attempt {
			return f, true
		}
	}
	return FailureSpec{}, false
}

// hostLost fails attempt t over to another host if its host has died, and
// reports whether it did.
func (e *Engine) hostLost(t *taskRun, host topology.HostID, release func()) bool {
	if !e.isDead(host) {
		return false
	}
	release()
	retry := *t
	retry.attempt++
	retry.spanID = 0 // the retry is a fresh span
	e.retryOrFail(t, &retry, host, fmt.Errorf("host %d died under attempt", host))
	return true
}

// retryOrFail records a failed attempt t and submits its retry next, or
// fails the job once the task has made plan.MaxAttempts attempts.
func (e *Engine) retryOrFail(t, next *taskRun, host topology.HostID, err error) {
	e.taskEvent(obs.PhaseFailed, t, int(e.Topo.DCOf(host)), err)
	if t.attempt >= plan.MaxAttempts {
		e.failJob(t.ss.job, fmt.Errorf("exec: task %s failed %d attempts: %w", t.name(), t.attempt, err))
		return
	}
	t.ss.job.retries++
	e.taskEvent(obs.PhaseRetried, next, -1, nil)
	e.submitTask(next)
}

// postPhase hands the phase output onward: push to the next phase, register
// shuffle output, or deliver results.
func (e *Engine) postPhase(t *taskRun, host topology.HostID, out partData, bound map[int]partData, release func(), start float64) {
	st := t.ss.st
	phase := st.Phases[t.phase]
	if phase.Transfer != nil {
		e.markPhaseDone(t.ss, t.phase)
		target := e.transferTarget(t.ss, phase.Transfer, t.part)
		nextBound := map[int]partData{phase.TransferNode.ID: out}
		if e.Topo.DCOf(host) == target {
			// Already in the aggregator datacenter: transferTo is a no-op
			// (Sec. IV-C2); continue the next phase inline.
			next := &taskRun{ss: t.ss, phase: t.phase + 1, part: t.part, attempt: t.attempt, bound: nextBound, parentSpan: e.spanFor(t)}
			e.computePhase(next, host, release, start)
			return
		}
		// Hand off to a receiver task in the target DC; this task is done.
		next := &taskRun{
			ss: t.ss, phase: t.phase + 1, part: t.part, attempt: t.attempt,
			receiver: true, bound: nextBound, pushFrom: host, pushBytes: out.modeled,
			parentSpan: e.spanFor(t),
		}
		handoff := func() { e.submitTask(next) }
		if e.cfg.NoPipelining {
			// Ablation: hold every push behind a phase barrier, the way a
			// fetch-based shuffle would wait for all mappers.
			e.holdHandoff(t.ss, t.phase, handoff)
		} else {
			handoff()
		}
		release()
		return
	}

	// Final phase of the stage: the first finisher wins the partition, and
	// a later one discards its work.
	if !e.claimPartDone(t.ss, t.part) {
		release()
		return
	}
	if st.OutSpec != nil {
		e.reg.AddMapOutput(st.OutSpec.ID, t.part, host, out.records, out.modeled)
		e.recoveryDone(st.OutSpec.ID, t.part)
		e.Clock.After(out.modeled/diskBps, func() {
			e.taskEvent(obs.PhaseFinished, t, int(e.Topo.DCOf(host)), nil)
			release()
			e.taskDone(t.ss)
		})
		return
	}

	// Result stage: deliver to the driver (or save locally and ack).
	job := t.ss.job
	var bytes, localWrite float64
	switch job.action {
	case ActionCollect:
		job.resultRecords[t.part] = out.records
		bytes = out.modeled
	case ActionCount:
		job.resultCounts[t.part] = len(out.records)
		bytes = 64
	case ActionSave:
		job.resultRecords[t.part] = out.records
		job.resultCounts[t.part] = len(out.records)
		bytes = 64 // completion ack only; output lands on local storage
		localWrite = out.modeled / diskBps
	default:
		panic(fmt.Sprintf("exec: unknown action %d", job.action))
	}
	resStart := e.Clock.Now()
	e.Clock.After(localWrite, func() {
		e.Net.StartFlow(host, e.Topo.MasterHost, bytes, TagResult, func() {
			e.trace(trace.Span{
				Kind: trace.KindResult, ID: e.ids.Next(), Parent: e.spanFor(t),
				Host: host, Stage: st.ID, Part: t.part,
				SrcSite: e.siteName(host), DstSite: e.siteName(e.Topo.MasterHost), Bytes: bytes,
				Start: resStart, End: e.Clock.Now(),
			})
			e.taskEvent(obs.PhaseFinished, t, int(e.Topo.DCOf(host)), nil)
			release()
			e.taskDone(t.ss)
			job.resultsIn++
			if job.resultsIn == st.NumTasks {
				job.done = true
				job.end = e.Clock.Now()
			}
		})
	})
}

// markPhaseDone counts one completed task of a non-final phase and, under
// NoPipelining, releases the held pushes once the phase barrier is
// reached.
func (e *Engine) markPhaseDone(ss *stageState, phase int) {
	ss.phaseDone[phase]++
	if !e.cfg.NoPipelining || ss.phaseDone[phase] < ss.st.NumTasks {
		return
	}
	held := ss.heldHandoffs[phase]
	ss.heldHandoffs[phase] = nil
	for _, h := range held {
		h()
	}
}

func (e *Engine) holdHandoff(ss *stageState, phase int, handoff func()) {
	if ss.phaseDone[phase] >= ss.st.NumTasks {
		// Barrier already reached (this was the last task).
		handoff()
		return
	}
	ss.heldHandoffs[phase] = append(ss.heldHandoffs[phase], handoff)
}

// taskDone accounts a completed final-phase task and completes the stage
// when all are in.
func (e *Engine) taskDone(ss *stageState) {
	ss.tasksDone++
	if ss.tasksDone < ss.st.NumTasks {
		return
	}
	if ss.completed {
		// A post-failure recomputation refilled the stage; children are
		// already running (or waiting on the recovered shuffle reads).
		return
	}
	if ss.st.OutSpec != nil && e.recoverShuffle(ss.st.OutSpec.ID) {
		// A host died during the stage and took outputs it had registered
		// with it: their map tasks run again before the barrier opens.
		return
	}
	ss.completed = true
	ss.span.End = e.Clock.Now()
	e.log.Debug("exec: stage finished", "stage", ss.st.Name(), "id", ss.st.ID, "sec", ss.span.End-ss.span.Start)
	e.Events.OnStage(ss.span)
	if ss.st.OutSpec != nil {
		e.reg.Finalize(ss.st.OutSpec.ID)
	}
	for _, other := range ss.job.stages {
		for _, p := range other.st.Parents {
			if p == ss.st {
				other.pendingParents--
				if other.pendingParents == 0 && !other.launched {
					e.launchStage(other)
				}
			}
		}
	}
}

func (e *Engine) failJob(job *jobState, err error) {
	job.err = err
	job.done = true
	job.end = e.Clock.Now()
}
