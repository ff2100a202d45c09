package livecluster

import (
	"sync"
	"time"

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
// jumping at job end. And at the end of every Run a flush drains whatever no
// beat has merged, so post-run totals are exact regardless of heartbeat
// timing; with heartbeats off (Config.HeartbeatInterval < 0: no ticker) that
// flush is the only merge there is. A beat is telemetry, not liveness: a
// worker is down when it is closed, and nothing else says so.

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
// there is a ticker per worker. What is accounted, and how, does not depend
// on it.
func (c *Cluster) hbEnabled() bool { return c.cfg.HeartbeatInterval > 0 }

// mergeHeartbeat folds one worker's telemetry delta into the current job's
// stats (bytes, matrix, class splits, request counters, receive and serve
// spans); between jobs there is nothing to fold it into and it is dropped.
// Called both from the workers' tickers and from the end-of-run flush.
func (c *Cluster) mergeHeartbeat(hb heartbeat) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	run := c.curRun.Load()
	if run == nil {
		return
	}
	run.stats.merge(hb, c.cfg.Trace)
}

// flush drains the worker's buffer into the current job's stats. hbMu is held
// from the drain to the end of the merge, so a ticker beat and the end-of-run
// flush never interleave: every datum is merged exactly once, and a beat that
// drained before the flush has merged before the flush returns.
func (w *worker) flush() {
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	w.cluster.mergeHeartbeat(w.tel.drain())
}

// flushTelemetry flushes every worker, so the job's post-run totals are
// exact.
func (c *Cluster) flushTelemetry() {
	for _, w := range c.workers {
		w.flush()
	}
}

// startHeartbeats begins the worker's ticker loop: every tick is one beat,
// merged by a call. Closing the worker stops it.
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
				w.flush()
			}
		}
	}()
}

// workerHealthy reports whether worker i can take tasks: it exists and is
// not closed. Heartbeats are in-process calls, so a late one means a busy
// merge, not a dead worker.
func (c *Cluster) workerHealthy(i int) bool {
	return i >= 0 && i < len(c.workers) && !c.workers[i].closed.Load()
}
