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
	ss.span = plan.StageSpan{ID: ss.st.ID, Name: ss.name, Start: e.Clock.Now()}
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
		if node == nil {
			break
		}
		if _, ok := e.cachedEverywhere(node); !ok {
			break
		}
		start = k + 1
	}
	return start
}

// cachedEverywhere returns a Cached node's cached copies, reporting whether
// every one of its partitions has one.
func (e *Engine) cachedEverywhere(node *rdd.RDD) ([]*cachedPart, bool) {
	parts, ok := e.cache[node.ID]
	return parts, ok && node.Cached && !slices.Contains(parts, nil)
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
// to the shared plan.ChooseAggregator. The decision goes to the engine's
// event collector, the run report's one record of it.
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
	base := ss.st.Base
	parts, cached := e.cachedEverywhere(base)
	switch {
	case len(base.Deps) == 0:
		for i := range base.Input {
			byDC[e.Topo.DCOf(base.Input[i].Host)] += base.Input[i].ModeledBytes
		}
	case cached:
		for _, cp := range parts {
			byDC[e.Topo.DCOf(cp.host)] += cp.modeled
		}
	default:
		// Per dependency, each host's bytes summed in map order, then hosts
		// in ascending order: the summing order the figures were made with.
		hostBytes := make([]float64, e.Topo.NumHosts())
		for di := range base.Deps {
			clear(hostBytes)
			e.reg.AddSiteBytes(base.Deps[di].Shuffle.ID, hostBytes)
			for host, b := range hostBytes {
				byDC[e.Topo.DCOf(topology.HostID(host))] += b
			}
		}
	}
	shuffleID := -1
	if ss.st.OutSpec != nil {
		shuffleID = ss.st.OutSpec.ID
	}
	var dec obs.PlacementDecision
	ss.aggRank, dec = plan.ChooseAggregator[topology.DCID](shuffleID, ss.st.ID, byDC,
		e.cfg.AggregatorPolicy, e.linkCosts(), e.aggRNG.Shuffle,
		func(dc int) string { return e.Topo.DCs[dc].Name })
	ss.aggResolved = true
	if len(ss.aggRank) > 0 {
		e.Events.OnPlacement(dec)
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
		panic(fmt.Sprintf("exec: %s: auto transfer without resolved aggregator", ss.name))
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
		t.spanID = e.Tracer.NewSpanID()
	}
	return t.spanID
}

func (t *taskRun) name() string {
	return fmt.Sprintf("%s/p%d/t%d#%d", t.ss.name, t.phase, t.part, t.attempt)
}

// taskEvent reports one lifecycle transition of a task attempt to the
// engine's collector. Site is the datacenter index of the placed host (the
// simulator's unit of placement), or -1 before placement.
func (e *Engine) taskEvent(phase obs.TaskPhase, t *taskRun, site int, err error) {
	ev := obs.TaskEvent{
		Phase: phase, Stage: t.ss.st.ID, StageName: t.ss.name,
		Part: t.part, Site: site, Attempt: t.attempt, Time: e.Clock.Now(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	e.Events.OnTask(ev)
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
	e.sched.Submit(&sched.Task{
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
	if e.cfg.PinReducersDC != nil && len(ss.st.Base.Deps) > 0 {
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
			if !slices.Contains(inDC, h) {
				rest = append(rest, h)
			}
		}
		return append(inDC, rest...)
	}
	return e.locality(ss, part)
}

// locality derives byte-ordered preferred hosts for a stage-entry task.
func (e *Engine) locality(ss *stageState, part int) []topology.HostID {
	n := e.walkNeed(ss.st.Phases[ss.startPhase].Top, part, nil)
	byHost := map[topology.HostID]float64{}
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
// to disk, then continue the phase chain. A push whose source host died
// before it started or before it landed is not delivered (pushLost).
func (e *Engine) receiveThenCompute(t *taskRun, host topology.HostID, release func(), start float64) {
	if e.pushLost(t, host, release) {
		return
	}
	from := t.pushFrom
	pushStart := e.Clock.Now()
	pushID := e.Tracer.NewSpanID()
	t.linkSpan = pushID // the receiver's compute span consumed this send
	e.Net.StartFlow(from, host, t.pushBytes, TagPush, func() {
		if e.pushLost(t, host, release) {
			return
		}
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

// pushLost fails receiver attempt t at host if the host its push comes from
// has died: the map output died with it, so the partition runs again from
// the stage's first phase as a fresh attempt, counted against
// plan.MaxAttempts. A flow already started is not cancelled (simnet has no
// cancellation): it runs to its end and its bytes stay in the cross-DC
// accounting, at most the bytes left at the death more than crossed.
func (e *Engine) pushLost(t *taskRun, host topology.HostID, release func()) bool {
	if !e.isDead(t.pushFrom) {
		return false
	}
	release()
	retry := &taskRun{ss: t.ss, part: t.part, phase: t.ss.startPhase, attempt: t.attempt + 1}
	e.retryOrFail(t, retry, host, fmt.Errorf("push source host %d died", t.pushFrom))
	return true
}

// acquireThenCompute fetches a phase-0 task's inputs: local disk reads plus
// concurrent network flows for remote sources, caches, and shuffle shards
// (the fetch-based all-to-all burst).
func (e *Engine) acquireThenCompute(t *taskRun, host topology.HostID, release func(), start float64) {
	n := e.walkNeed(t.ss.st.Phases[t.phase].Top, t.part, t.bound)
	if e.parkOnLostShuffle(t, host, release, n) {
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
			remotes = append(remotes, remote{n.host, n.modeled, tagCache})
		}
	case needShuffleRead:
		isReduce = true
		fetchShuffle = n.node.Deps[0].Shuffle.ID
		for di := range n.node.Deps {
			for _, sh := range e.reg.Shards(n.node.Deps[di].Shuffle.ID, t.part) {
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
				Kind: kind, ID: e.Tracer.NewSpanID(), Parent: e.spanFor(t),
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
	// Aggregate the shuffle boundary this phase reads first. The fetch may
	// have raced a host failure that lost some of its output.
	n := e.walkNeed(phase.Top, t.part, bound)
	if e.parkOnLostShuffle(t, host, release, n) {
		return
	}
	isReduce := n.kind == needShuffleRead
	if isReduce {
		bound[n.node.ID] = e.aggregateShuffle(n.node, t.part, host, &cost)
	}
	// Map-side combine runs before the push when it can (Sec. IV-C3): at the
	// end of the last phase that computes anything, whether it runs on the
	// mapper, inline or as a receiver. A cogroup side is charged there too.
	last := st.OutSpec != nil && t.phase == max(t.ss.startPhase, combinePhase(st))
	var combine *rdd.ShuffleSpec
	if last && st.OutSpec.CombinesMapSide() {
		combine = st.OutSpec
	}
	out := e.phaseOutput(phase.Top, t.part, host, bound, combine, &cost)
	if last && st.OutSpec.CoGroupSide {
		out = chargeSide(out, &cost)
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

// phaseOutput computes what a task phase hands on: partition part of top,
// folded by combine's map-side combine when combine is not nil. The combine
// is pipelined with the phase's chain: its records stream straight into the
// combiner, so the uncombined map output is never built, and the combine
// pass is charged on the uncombined output's modeled size.
func (e *Engine) phaseOutput(top *rdd.RDD, part int, host topology.HostID, bound map[int]partData, combine *rdd.ShuffleSpec, cost *float64) partData {
	if combine == nil {
		return e.evaluate(top, part, host, bound, cost)
	}
	c := rdd.NewCombiner(combine.Combine)
	ops, base := e.chain(top, part, host, bound, cost)
	in := meter(ops, base, cost, c.Add)
	*cost += in.modeled * 0.2 // combine pass over the map output
	combined := c.Unsorted()
	outReal := rdd.SizeOfAll(combined)
	return partData{records: combined, real: outReal, modeled: scaleTo(outReal, in.real, in.modeled)}
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
		e.unpark(st.OutSpec.ID)
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
				Kind: trace.KindResult, ID: e.Tracer.NewSpanID(), Parent: e.spanFor(t),
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
		// already running, and its registration resubmitted the readers
		// parked on the lost output.
		return
	}
	if ss.st.OutSpec != nil && e.recoverShuffle(ss.st.OutSpec.ID) {
		// A host died during the stage and took outputs it had registered
		// with it: their map tasks run again before the barrier opens.
		return
	}
	ss.completed = true
	ss.span.End = e.Clock.Now()
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
