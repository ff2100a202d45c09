package livecluster

import (
	"fmt"
	"slices"
	"time"

	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// liveRun implements plan.Backend for one job on the cluster: tasks run as
// goroutines at their assigned worker, shuffle bytes cross the workers'
// TCP sockets, and the driver's planning decisions (stages, aggregators,
// placement, retries) arrive through the interface.
type liveRun struct {
	c     *Cluster
	stats *Stats
	start time.Time
	// traceID names the run's causal trace; every span of the job — driver
	// and worker side — carries it.
	traceID trace.TraceID
	// shuffleStage maps shuffle ID → producing stage ID, so server-side
	// receive spans carry the same stage attribution as the simulator's.
	shuffleStage map[int]int

	// MapOutputTracker records each map output's holder worker and
	// measured size, feeding both shuffle reads and the next shuffle's
	// aggregator selection.
	plan.MapOutputTracker
}

func newLiveRun(c *Cluster, stats *Stats, p *dag.Plan) *liveRun {
	shuffleStage := map[int]int{}
	for _, st := range p.Stages {
		if st.OutSpec != nil {
			shuffleStage[st.OutSpec.ID] = st.ID
		}
	}
	start := time.Now()
	return &liveRun{
		c: c, stats: stats, start: start,
		traceID:      trace.TraceID(fmt.Sprintf("live-%d", start.UnixNano())),
		shuffleStage: shuffleStage,
	}
}

// base is the run's start on the cluster clock: worker span timestamps are
// rebased through it (local time + offset − base = run-relative seconds).
func (r *liveRun) base() float64 { return r.start.Sub(r.c.epoch).Seconds() }

// stageOfShuffle resolves a shuffle ID to the stage that produced it (-1
// if unknown).
func (r *liveRun) stageOfShuffle(id int) int {
	if st, ok := r.shuffleStage[id]; ok {
		return st
	}
	return -1
}

// NumSites implements plan.Backend: one site per worker.
func (r *liveRun) NumSites() int { return len(r.c.workers) }

// SiteOfHost implements plan.Backend: lineage hosts wrap onto workers.
func (r *liveRun) SiteOfHost(h topology.HostID) int { return int(h) % len(r.c.workers) }

// InputSizes implements plan.Backend: leaf input bytes at the sites their
// tasks round-robin onto, plus the measured sizes of map outputs feeding
// the stage's shuffle boundaries, at their holder workers. Sizes here and
// in RunMapTask's RecordMapOutput are rdd.EncodedSize — the bytes the
// records take on this cluster's wire — so the planner's predicted
// transfer cost is a prediction about the real sockets, not about the
// simulator's SizeOf model.
func (r *liveRun) InputSizes(st *dag.Stage) []float64 {
	bySite := make([]float64, len(r.c.workers))
	for _, src := range st.Sources {
		for i := range src.Input {
			bySite[i%len(r.c.workers)] += rdd.EncodedSize(src.Input[i].Records)
		}
	}
	r.AddBoundaryBytes(st, bySite)
	return bySite
}

// RunMapTask implements plan.Backend: evaluate the partition at its
// worker, prepare it map-side, then push it to the aggregator over TCP the
// moment the task finishes (aggTo >= 0, the paper's transferTo) or store
// it locally for later fetches.
func (r *liveRun) RunMapTask(st *dag.Stage, part, site, aggTo, attempt int) error {
	w := r.c.workers[site]
	if w.closed.Load() {
		return fmt.Errorf("livecluster: worker %d is down", site)
	}
	taskID := r.c.ids.Next()
	t0 := r.since()
	lastFetch := t0
	recs, err := plan.EvalStagePart(st, part, r.reader(site, st.ID, taskID, &lastFetch))
	if err != nil {
		return err
	}
	if w.closed.Load() {
		// The worker died under the task; its output cannot be stored or
		// pushed from a dead site. Fail the attempt so the driver
		// re-places it on a healthy worker.
		return fmt.Errorf("livecluster: worker %d died during map task %s/t%d", site, st.Name(), part)
	}
	prepared := rdd.MapSidePrepare(st.OutSpec, recs)
	preparedBytes := rdd.SizeOfAll(prepared)
	// The compute span runs from the last shuffle read (t0 for leaf
	// stages) until the output is ready; the push is its own span, so the
	// timeline separates M and P the way the simulator's does. The map
	// span carries the shuffle it produced, making it a producer edge for
	// downstream fetch/serve spans in critical-path analysis.
	r.span(trace.Span{
		Kind: trace.KindMap, ID: taskID, Host: topology.HostID(site),
		Stage: st.ID, Part: part, Shuffle: st.OutSpec.ID,
		Bytes: preparedBytes, Records: len(prepared),
		Start: lastFetch, End: r.since(),
	})
	holder := site
	if aggTo >= 0 {
		tPush := r.since()
		pushID := r.c.ids.Next()
		if err := w.push(r.c.workers[aggTo].addr, st.OutSpec.ID, part, attempt, prepared, r.stats,
			spanCtx{trace: r.traceID, parent: taskID, span: pushID}); err != nil {
			return err
		}
		r.span(trace.Span{
			Kind: trace.KindPush, ID: pushID, Parent: taskID, Host: topology.HostID(site),
			Stage: st.ID, Part: part, Shuffle: st.OutSpec.ID,
			SrcSite: r.c.siteLabel(site), DstSite: r.c.siteLabel(aggTo),
			Bytes: preparedBytes, Records: len(prepared),
			Start: tPush, End: r.since(),
		})
		holder = aggTo
	} else {
		// Fetch mode: the output stays at its mapper, landing in the same
		// block store pushes assemble into (and spilling under the same
		// budget), so later fetches stream it back out through one path.
		if err := w.storeMapOutput(st.OutSpec.ID, part, attempt, prepared); err != nil {
			return err
		}
	}
	r.RecordMapOutput(st.OutSpec.ID, st.NumTasks, part, holder, attempt, rdd.EncodedSize(prepared))
	return nil
}

// RunResultTask implements plan.Backend.
func (r *liveRun) RunResultTask(st *dag.Stage, part, site int) ([]rdd.Pair, error) {
	if r.c.workers[site].closed.Load() {
		return nil, fmt.Errorf("livecluster: worker %d is down", site)
	}
	taskID := r.c.ids.Next()
	t0 := r.since()
	lastFetch := t0
	recs, err := plan.EvalStagePart(st, part, r.reader(site, st.ID, taskID, &lastFetch))
	if err != nil {
		return nil, err
	}
	r.span(trace.Span{
		Kind: trace.KindReduce, ID: taskID, Host: topology.HostID(site),
		Stage: st.ID, Part: part, Records: len(recs),
		Start: lastFetch, End: r.since(),
	})
	return recs, nil
}

// Barrier implements plan.Backend: once a map stage completes, prepare its
// range partitioner from keys sampled out of the stored map outputs, over
// the wire (Spark's sampling job at the map barrier).
func (r *liveRun) Barrier(st *dag.Stage) error {
	spec := st.OutSpec
	return rdd.PrepareRange(spec, st.NumTasks, func(m, max int) ([]string, error) {
		holder, err := r.Holder(spec.ID, m)
		if err != nil {
			return nil, err
		}
		return r.c.sampleKeys(r.c.workers[holder].addr, spec.ID, m, max, r.stats)
	})
}

// OnTask implements plan.Backend (obs.Sink): the driver's task lifecycle
// stream feeds the job's event collector and its metrics registry.
func (r *liveRun) OnTask(ev obs.TaskEvent) { r.stats.Events.OnTask(ev) }

// OnStage implements plan.Backend (obs.Sink).
func (r *liveRun) OnStage(span plan.StageSpan) {
	r.stats.Events.OnStage(span)
	r.stats.addStageSpan(span)
}

// SiteHealthy implements plan.SiteHealth: a worker is healthy while it is
// open and (with heartbeats enabled) its heartbeats are fresh. The driver
// re-places retried task attempts away from unhealthy sites.
func (r *liveRun) SiteHealthy(site int) bool { return r.c.workerHealthy(site) }

// OnPlacement implements plan.PlacementObserver: label the decision's
// sites with the cluster's matrix labels, then record it on the job's
// stats (report section plus placement_* metrics).
func (r *liveRun) OnPlacement(d obs.PlacementDecision) {
	d.ChosenSite = r.c.siteLabel(d.Chosen)
	for i := range d.Candidates {
		d.Candidates[i].SiteName = r.c.siteLabel(d.Candidates[i].Site)
	}
	r.stats.addPlacement(d)
}

// reader builds the ShuffleReader tasks at one worker gather their shuffle
// input through: every map output's shard is fetched over TCP from its
// holder (aggregator or mapper), serially in map order so gathered records
// arrive deterministically. Fetch spans carry the reading stage's ID and
// nest under the consuming task (parent); the fetch span's own ID rides
// the wire so each holder's serve span nests under it. lastFetch tracks
// when the task's final fetch completed, so callers can start the compute
// span after the transfer window.
func (r *liveRun) reader(site, stage int, parent trace.SpanID, lastFetch *float64) plan.ShuffleReader {
	return func(spec *rdd.ShuffleSpec, reduce int) ([]rdd.Pair, error) {
		numMaps := r.NumMaps(spec.ID)
		t0 := r.since()
		fetchID := r.c.ids.Next()
		var chunks [][]rdd.Pair // every map's shard, as the chunks it arrived in
		srcBytes := map[int]float64{}
		for m := 0; m < numMaps; m++ {
			holder, err := r.Holder(spec.ID, m)
			if err != nil {
				return nil, err
			}
			shard, err := r.c.workers[site].fetch(r.c.workers[holder].addr, spec.ID, m, reduce, r.stats,
				spanCtx{trace: r.traceID, parent: fetchID})
			if err != nil {
				return nil, err
			}
			for _, ch := range shard {
				srcBytes[holder] += rdd.SizeOfAll(ch)
			}
			chunks = append(chunks, shard...)
		}
		// The one copy between decoding and the reduce-side sort: a single
		// allocation of the gathered size.
		out := slices.Concat(chunks...)
		// Attribute the fetch to its dominant source by bytes (ties break
		// toward the lower worker index, for determinism).
		src, best := site, -1.0
		for s, b := range srcBytes {
			if b > best || (b == best && s < src) {
				src, best = s, b
			}
		}
		r.span(trace.Span{
			Kind: trace.KindFetch, ID: fetchID, Parent: parent, Host: topology.HostID(site),
			Stage: stage, Part: reduce, Shuffle: spec.ID,
			SrcSite: r.c.siteLabel(src), DstSite: r.c.siteLabel(site),
			Records: len(out),
			Start:   t0, End: r.since(),
		})
		if end := r.since(); lastFetch != nil && end > *lastFetch {
			*lastFetch = end
		}
		return out, nil
	}
}

func (r *liveRun) since() float64 { return time.Since(r.start).Seconds() }

// span records one driver-side span, stamping the run's trace ID.
func (r *liveRun) span(s trace.Span) {
	s.Trace = r.traceID
	r.c.cfg.Trace.Add(s)
}
