package livecluster

import (
	"sync"
	"time"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/trace"
)

// Worker telemetry and worker→driver heartbeats. Everything a worker
// accounts — per-(src,dst,class) byte deltas, transfer samples, request and
// dial counts, completed receive and serve spans — lands in its workerTel,
// and the driver merging that buffer into the running job's Stats
// (mergeHeartbeat) is the one way any of it is ever counted. Two things
// drain the buffer, both by a function call: control never crosses a socket.
// With heartbeats on, each worker's ticker goroutine drains and merges it, so
// mid-run /metrics and /report snapshots converge continuously instead of
// jumping at job end, and stamps the worker's liveness clock. And at the end
// of every Run a flush drains whatever no beat has merged, so post-run totals
// are exact regardless of heartbeat timing; with heartbeats off
// (Config.HeartbeatInterval < 0: no ticker, no liveness) that flush is the
// only merge there is.

// flowKey identifies one traffic-matrix cell per class.
type flowKey struct {
	src, dst int
	class    string
}

// flowAgg accumulates one cell's wire and raw bytes between beats.
type flowAgg struct {
	wire, raw int64
}

// flowDelta is one accumulated matrix cell of a drained buffer.
type flowDelta struct {
	Src, Dst int
	Class    string
	Bytes    int64 // wire bytes
	Raw      int64 // uncompressed-equivalent bytes
}

// xferSample is one completed exchange's throughput sample: wire bytes over
// wall-clock seconds between two matrix sites.
type xferSample struct {
	Src, Dst int
	Bytes    int64
	Sec      float64
}

// heartbeat is one worker's telemetry delta since its buffer was last
// drained. Its spans are stamped on the run's clock, like the driver's.
type heartbeat struct {
	Worker          int
	Flows           []flowDelta
	Xfers           []xferSample
	Pushes, Fetches int64
	Dials           int64
	Spans           []trace.Span
}

// workerTel buffers one worker's telemetry until the driver merges it: the
// next heartbeat's payload, with the flows still keyed by cell.
type workerTel struct {
	mu    sync.Mutex
	hb    heartbeat // everything but Flows
	flows map[flowKey]flowAgg
}

func newWorkerTel() *workerTel { return &workerTel{flows: map[flowKey]flowAgg{}} }

// flow accounts one exchange attempt's payload bytes from worker src to dst
// under a traffic class: wire is what actually crossed the socket, raw is
// wire plus whatever chunk compression saved (raw == wire when compression
// is off or saved nothing).
func (t *workerTel) flow(src, dst int, class string, wire, raw int64) {
	t.mu.Lock()
	k := flowKey{src, dst, class}
	agg := t.flows[k]
	agg.wire += wire
	agg.raw += raw
	t.flows[k] = agg
	t.mu.Unlock()
}

// xfer records one completed exchange's wire bytes and wall-clock duration
// as a throughput sample for the cluster's link estimator. Flows aggregate
// between merges (exact byte conservation); samples stay individual — an
// EWMA fed one merged lump per heartbeat would see one giant slow "transfer"
// instead of the real per-exchange rates — and a link's exchange count
// bounds the buffer naturally.
func (t *workerTel) xfer(src, dst int, bytes int64, sec float64) {
	t.mu.Lock()
	t.hb.Xfers = append(t.hb.Xfers, xferSample{Src: src, Dst: dst, Bytes: bytes, Sec: sec})
	t.mu.Unlock()
}

// dial accounts one fresh TCP connection.
func (t *workerTel) dial() {
	t.mu.Lock()
	t.hb.Dials++
	t.mu.Unlock()
}

// op accounts one successful request by purpose.
func (t *workerTel) op(kind requestKind) {
	t.mu.Lock()
	if kind == reqPushChunk {
		t.hb.Pushes++
	} else {
		t.hb.Fetches++
	}
	t.mu.Unlock()
}

// addSpan buffers a completed server-side span.
func (t *workerTel) addSpan(s trace.Span) {
	t.mu.Lock()
	t.hb.Spans = append(t.hb.Spans, s)
	t.mu.Unlock()
}

// drain swaps the buffer out and returns it as a heartbeat payload.
func (t *workerTel) drain() heartbeat {
	t.mu.Lock()
	defer t.mu.Unlock()
	hb := t.hb
	for k, agg := range t.flows {
		hb.Flows = append(hb.Flows, flowDelta{Src: k.src, Dst: k.dst, Class: k.class, Bytes: agg.wire, Raw: agg.raw})
	}
	t.hb, t.flows = heartbeat{}, map[flowKey]flowAgg{}
	return hb
}

// hbEnabled reports whether heartbeating is on for this cluster: whether
// there is a ticker per worker and a liveness clock to read. What is
// accounted, and how, does not depend on it.
func (c *Cluster) hbEnabled() bool { return c.cfg.HeartbeatInterval > 0 }

// mergeHeartbeat folds one worker's telemetry delta into the current job's
// stats (bytes, matrix, class splits, request counters, receive and serve
// spans); between jobs there is nothing to fold it into and it is dropped.
// Called both from the workers' tickers (beat true: heartbeats_total counts
// those merges) and from the end-of-run flush.
func (c *Cluster) mergeHeartbeat(hb heartbeat, beat bool) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	run := c.curRun.Load()
	if run == nil {
		return
	}
	run.stats.merge(hb, c.cfg.Trace)
	if beat {
		run.stats.Events.Registry().Counter("heartbeats_total", obs.Labels{"worker": siteLabel(hb.Worker)}).Inc()
	}
	c.log.Debug("livecluster: heartbeat merged", "worker", hb.Worker, "flows", len(hb.Flows), "spans", len(hb.Spans))
}

// flush drains the worker's buffer into the current job's stats. hbMu is held
// from the drain to the end of the merge, so a ticker beat and the end-of-run
// flush never interleave: every datum is merged exactly once, and a beat that
// drained before the flush has merged before the flush returns.
func (w *worker) flush(beat bool) {
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	hb := w.tel.drain()
	hb.Worker = w.id
	w.cluster.mergeHeartbeat(hb, beat)
}

// flushTelemetry flushes every worker, so the job's post-run totals are
// exact.
func (c *Cluster) flushTelemetry() {
	for _, w := range c.workers {
		w.flush(false)
	}
}

// startHeartbeats begins the worker's ticker loop: every tick is one beat,
// merged by a call and stamped on the worker's liveness clock. A closed
// worker's ticker has stopped, which is what makes it stale.
func (w *worker) startHeartbeats(interval time.Duration) {
	w.stopHB = make(chan struct{})
	w.hbWG.Add(1)
	go func() {
		defer w.hbWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-w.stopHB:
				return
			case <-tick.C:
				w.flush(true)
				w.cluster.lastBeat[w.id].Store(time.Now().UnixNano())
			}
		}
	}()
}

// HeartbeatAges returns each worker's time since its last merged
// heartbeat. Without heartbeats enabled every age is zero.
func (c *Cluster) HeartbeatAges() []time.Duration {
	out := make([]time.Duration, len(c.workers))
	if !c.hbEnabled() {
		return out
	}
	now := time.Now().UnixNano()
	for i := range c.lastBeat {
		out[i] = time.Duration(now - c.lastBeat[i].Load())
	}
	return out
}

// StaleWorkers returns the workers currently considered dead: closed, or
// silent for longer than Config.StaleAfter (with heartbeats enabled).
func (c *Cluster) StaleWorkers() []int {
	var out []int
	for i := range c.workers {
		if !c.workerHealthy(i) {
			out = append(out, i)
		}
	}
	return out
}

// workerHealthy reports whether worker i can take tasks: not closed, and
// not heartbeat-stale.
func (c *Cluster) workerHealthy(i int) bool {
	if i < 0 || i >= len(c.workers) || c.workers[i].closed.Load() {
		return false
	}
	if c.hbEnabled() {
		age := time.Duration(time.Now().UnixNano() - c.lastBeat[i].Load())
		if age > c.cfg.StaleAfter {
			return false
		}
	}
	return true
}

// RefreshLiveness publishes each worker's heartbeat age as the
// worker_heartbeat_age_sec gauge in the current (or last) job's registry.
// Telemetry scrape paths call it so /metrics always carries fresh ages.
func (c *Cluster) RefreshLiveness() {
	if !c.hbEnabled() {
		return
	}
	var reg *obs.Registry
	if run := c.curRun.Load(); run != nil {
		reg = run.stats.Events.Registry()
	} else if s := c.lastStats.Load(); s != nil {
		reg = s.Events.Registry()
	}
	if reg == nil {
		return
	}
	now := time.Now().UnixNano()
	for i := range c.lastBeat {
		age := float64(now-c.lastBeat[i].Load()) / 1e9
		reg.Gauge("worker_heartbeat_age_sec", obs.Labels{"worker": siteLabel(i)}).Set(age)
	}
}

// KillWorker shuts worker i down mid-run — listener, stored outputs,
// pooled connections, heartbeats — simulating a worker death for failover
// testing. The driver's retry path re-places its tasks via SiteHealthy.
func (c *Cluster) KillWorker(i int) {
	if i < 0 || i >= len(c.workers) {
		return
	}
	c.log.Warn("livecluster: killing worker", "worker", i)
	c.workers[i].close()
}
