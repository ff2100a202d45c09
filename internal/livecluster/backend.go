package livecluster

import (
	"errors"
	"fmt"
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
	// and worker side — carries it, and none crosses a socket: a server
	// stamps it from the run its handler loaded.
	traceID trace.TraceID
	// shuffleStage maps shuffle ID → producing stage ID, so server-side
	// receive spans carry the same stage attribution as the simulator's.
	shuffleStage map[int]int
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

// stageOfShuffle resolves a shuffle ID to the stage that produced it (-1
// if unknown).
func (r *liveRun) stageOfShuffle(id int) int {
	if st, ok := r.shuffleStage[id]; ok {
		return st
	}
	return -1
}

// errWorkerDown fails a task whose worker was closed under it: what the
// worker held is gone with it.
var errWorkerDown = errors.New("worker is down")

// NumSites implements plan.Backend: one site per worker.
func (r *liveRun) NumSites() int { return len(r.c.workers) }

// RunTask implements plan.Backend: evaluate the partition at its worker,
// gathering its shuffle input through reader. A map task's output comes back
// from plan.TaskOutput prepared for its shuffle (combined map-side, where the
// spec asks, as the records are produced); the task either pushes it to the
// aggregator the moment it finishes (t.AggTo names another worker, the
// paper's transferTo) or installs it in its own worker's block store: in fetch mode, and in push mode when the
// task already runs on the aggregator — the s₁ of Eq. 2 that never has to
// move. The bytes it reports, like every span's, are record-codec bytes — what
// the records take on this cluster's wire — so the planner's predicted
// transfer cost is a prediction about the real sockets, not about the
// simulator's SizeOf model.
func (r *liveRun) RunTask(t plan.Task) (plan.TaskResult, error) {
	st, site := t.Stage, t.Site
	w := r.c.workers[site]
	if w.closed.Load() {
		return plan.TaskResult{}, fmt.Errorf("livecluster: worker %d: %w", site, errWorkerDown)
	}
	taskID := r.c.cfg.Trace.NewSpanID()
	// The compute span runs from the last shuffle read (the task's start
	// for leaf stages) until the output is ready; transfers are spans of
	// their own, so the timeline separates M and P the way the simulator's
	// does.
	lastFetch := r.since()
	out, err := plan.TaskOutput(st, t.Part, r.reader(t, taskID, &lastFetch))
	if err != nil {
		return plan.TaskResult{}, err
	}
	spec := st.OutSpec
	if spec == nil {
		r.span(trace.Span{
			Kind: trace.KindReduce, ID: taskID, Host: topology.HostID(site),
			Stage: st.ID, Part: t.Part, Records: len(out),
			Start: lastFetch, End: r.since(),
		})
		return plan.TaskResult{Records: out}, nil
	}
	if w.closed.Load() {
		// The worker died under the task; its output cannot be stored or
		// pushed from a dead site. Fail the attempt so the driver
		// re-places it on a healthy worker.
		return plan.TaskResult{}, fmt.Errorf("livecluster: map task %s/t%d on worker %d: %w", st.Name(), t.Part, site, errWorkerDown)
	}
	res := plan.TaskResult{Bytes: rdd.EncodedSize(out), Sample: rdd.RangeSample(spec, out)}
	// The map span carries the shuffle it produced, making it a producer
	// edge for downstream fetch/serve spans in critical-path analysis.
	r.span(trace.Span{
		Kind: trace.KindMap, ID: taskID, Host: topology.HostID(site),
		Stage: st.ID, Part: t.Part, Shuffle: spec.ID,
		Bytes: res.Bytes, Records: len(out),
		Start: lastFetch, End: r.since(),
	})
	if t.AggTo < 0 || t.AggTo == site {
		// The output stays where it was produced — every fetch-mode map
		// task, and a push-mode one that ran on its aggregator — landing in
		// the same block store pushes assemble into (spilling under the same
		// budget, last write wins by attempt). No push and no receive span:
		// the map span above is the producer edge, as in fetch mode.
		return res, w.storeMapOutput(spec.ID, t.Part, t.Attempt, out)
	}
	tPush := r.since()
	pushID := r.c.cfg.Trace.NewSpanID()
	sent, err := w.push(t.AggTo, spec.ID, t.Part, t.Attempt, out,
		spanCtx{parent: taskID, span: pushID})
	if err != nil {
		return plan.TaskResult{}, err
	}
	r.span(trace.Span{
		Kind: trace.KindPush, ID: pushID, Parent: taskID, Host: topology.HostID(site),
		Stage: st.ID, Part: t.Part, Shuffle: spec.ID,
		SrcSite: siteLabel(site), DstSite: siteLabel(t.AggTo),
		Bytes: float64(sent), Records: len(out),
		Start: tPush, End: r.since(),
	})
	return res, nil
}

// OnTask implements plan.Backend (obs.Sink): the driver's task lifecycle
// stream feeds the job's event collector.
func (r *liveRun) OnTask(ev obs.TaskEvent) { r.stats.Events.OnTask(ev) }

// OnStage implements plan.Backend (obs.Sink).
func (r *liveRun) OnStage(span plan.StageSpan) {
	r.stats.Events.OnStage(span)
	r.stats.addStageSpan(span)
}

// SiteHealthy implements plan.SiteHealth: a worker is healthy until it is
// closed. The driver re-places retried task attempts away from unhealthy
// sites.
func (r *liveRun) SiteHealthy(site int) bool { return r.c.workerHealthy(site) }

// OnPlacement implements plan.Backend (obs.Sink): label the decision's
// sites with the cluster's matrix labels, then record it in the job's
// event collector.
func (r *liveRun) OnPlacement(d obs.PlacementDecision) {
	d.ChosenSite = siteLabel(d.Chosen)
	for i := range d.Candidates {
		d.Candidates[i].SiteName = siteLabel(d.Candidates[i].Site)
	}
	r.stats.Events.OnPlacement(d)
}

// reader builds the ShuffleReader task t gathers its shuffle input
// through, serially in map order (plan.Task.Gather) so gathered records
// arrive deterministically. A map output the task's own worker holds — every
// one, when a push-mode reducer sits on its aggregator — is read from that
// worker's block store directly: no request, no serve span, no wire bytes.
// Gather's one copy stands between the store's slices and the reduce-side
// sort, so a read never aliases what a retried attempt will read again. Any
// other holder (a mapper in fetch mode, a second aggregator, the one a
// re-placed retry left behind) is fetched from over TCP. One fetch span per
// read carries the reading stage's ID and nests under the consuming task
// (parent); its own ID rides the wire so each holder's serve span nests under
// it, and its Bytes are the codec bytes of those serves — zero, with
// SrcSite == DstSite, when the gather touched no socket, which keeps a
// reducer's input wait (spill reloads included) on the timeline. lastFetch
// tracks when the task's final read completed, so callers can start the
// compute span after the transfer window.
func (r *liveRun) reader(t plan.Task, parent trace.SpanID, lastFetch *float64) plan.ShuffleReader {
	site := t.Site
	w := r.c.workers[site]
	return func(spec *rdd.ShuffleSpec, reduce int) ([]rdd.Pair, error) {
		t0 := r.since()
		fetchID := r.c.cfg.Trace.NewSpanID()
		var srcBytes map[int]int64 // record-codec bytes by remote holder; nil while every read is local
		var own [1][]rdd.Pair      // Gather copies the headers out before the next call
		out, err := t.Gather(spec.ID, func(m, holder int) ([][]rdd.Pair, error) {
			if holder == site {
				shard, err := w.shardOf(spec.ID, m, reduce)
				own[0] = shard
				return own[:], err
			}
			shard, n, err := w.fetch(holder, spec.ID, m, reduce,
				spanCtx{parent: fetchID})
			if srcBytes == nil {
				srcBytes = map[int]int64{}
			}
			srcBytes[holder] += n
			return shard, err
		})
		if err != nil {
			return nil, err
		}
		// Attribute the fetch to its dominant remote source by bytes (ties
		// break toward the lower worker index, for determinism); to the
		// reader itself when nothing came over a socket.
		src, best, total := site, int64(-1), int64(0)
		for s, b := range srcBytes {
			total += b
			if b > best || (b == best && s < src) {
				src, best = s, b
			}
		}
		end := r.since()
		r.span(trace.Span{
			Kind: trace.KindFetch, ID: fetchID, Parent: parent, Host: topology.HostID(site),
			Stage: t.Stage.ID, Part: reduce, Shuffle: spec.ID,
			SrcSite: siteLabel(src), DstSite: siteLabel(site),
			Bytes: float64(total), Records: len(out),
			Start: t0, End: end,
		})
		if end > *lastFetch {
			*lastFetch = end
		}
		return out, nil
	}
}

// since reads the run's clock, seconds since the job started: the one clock
// every span of the run is stamped on, driver and worker side.
func (r *liveRun) since() float64 { return r.at(time.Now()) }

// at places an instant on the run's clock.
func (r *liveRun) at(t time.Time) float64 { return t.Sub(r.start).Seconds() }

// span records one driver-side span, stamping the run's trace ID.
func (r *liveRun) span(s trace.Span) {
	s.Trace = r.traceID
	r.c.cfg.Trace.Add(s)
}
