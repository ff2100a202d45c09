package livecluster

import (
	"encoding/gob"
	"fmt"
	"net"
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
// drain the buffer. With heartbeats on, each worker ships it to the
// driver's heartbeat listener on a ticker, over a dedicated gob/TCP
// connection that is deliberately NOT byte-counted — heartbeats are control
// plane, and counting them would pollute the traffic matrix whose total must
// equal BytesOverTCP — so mid-run /metrics and /report snapshots converge
// continuously instead of jumping at job end. And at the end of every Run an
// in-process flush drains whatever no beat has shipped, so post-run totals
// are exact regardless of heartbeat timing; with heartbeats off
// (Config.HeartbeatInterval < 0: no ticker, no listener, no liveness) that
// flush is the only merge there is.

// flowKey identifies one traffic-matrix cell per class.
type flowKey struct {
	src, dst int
	class    string
}

// flowAgg accumulates one cell's wire and raw bytes between beats.
type flowAgg struct {
	wire, raw int64
}

// flowDelta is one accumulated matrix cell on the wire.
type flowDelta struct {
	Src, Dst int
	Class    string
	Bytes    int64 // wire bytes
	Raw      int64 // uncompressed-equivalent bytes
}

// xferSample is one completed exchange's throughput sample on the wire:
// wire bytes over wall-clock seconds between two matrix sites.
type xferSample struct {
	Src, Dst int
	Bytes    int64
	Sec      float64
}

// heartbeat is one worker's telemetry delta since its previous beat. It
// doubles as the clock-sync exchange: T0 carries the worker's local send
// time and the ack returns the driver's receive/reply times, giving the
// worker an NTP-style (offset, RTT) sample per beat. The worker's current
// best offset estimate rides along so the driver can map the beat's span
// timestamps — stamped on the worker's local clock — onto the run clock.
type heartbeat struct {
	Worker          int
	Flows           []flowDelta
	Xfers           []xferSample
	Pushes, Fetches int64
	Dials           int64
	Spans           []trace.Span
	// T0 is the worker's local clock at send time.
	T0 float64
	// Offset and RTT are the worker's current clock-alignment estimate
	// (driver clock minus worker clock, and the round trip it was measured
	// over); HasOffset is false until the first completed exchange, when
	// the driver falls back to a one-way estimate off this beat's T0.
	Offset, RTT float64
	HasOffset   bool
}

// hbAck acknowledges a merged heartbeat; the worker drains its buffer only
// after the driver confirms, so telemetry survives a failed send. T1 and
// T2 are the driver's receive and reply timestamps on its cluster clock,
// completing the four-timestamp clock-sync sample.
type hbAck struct {
	OK     bool
	T1, T2 float64
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

// addSpan buffers a completed server-side span, stamped on the worker's
// local clock.
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

// restore merges a drained heartbeat back, ahead of what was buffered since,
// after a failed send, so no telemetry is lost to a flaky exchange.
func (t *workerTel) restore(hb heartbeat) {
	for _, f := range hb.Flows {
		t.flow(f.Src, f.Dst, f.Class, f.Bytes, f.Raw)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hb.Xfers = append(hb.Xfers, t.hb.Xfers...)
	t.hb.Pushes += hb.Pushes
	t.hb.Fetches += hb.Fetches
	t.hb.Dials += hb.Dials
	t.hb.Spans = append(hb.Spans, t.hb.Spans...)
}

// hbEnabled reports whether heartbeating is on for this cluster: whether
// there is a ticker per worker, a listener at the driver and a liveness
// clock to read. What is accounted, and how, does not depend on it.
func (c *Cluster) hbEnabled() bool { return c.cfg.HeartbeatInterval > 0 }

// handleHeartbeats serves one worker's heartbeat connection on the driver:
// every beat is merged into the running job's stats and acknowledged. A beat
// that arrives here is also what says its worker is alive.
func (c *Cluster) handleHeartbeats(conn net.Conn) {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var hb heartbeat
		if err := dec.Decode(&hb); err != nil {
			return
		}
		t1 := c.clusterNow()
		if hb.Worker >= 0 && hb.Worker < len(c.lastBeat) {
			c.lastBeat[hb.Worker].Store(time.Now().UnixNano())
		}
		c.mergeHeartbeat(hb, t1, true)
		if err := enc.Encode(hbAck{OK: true, T1: t1, T2: c.clusterNow()}); err != nil {
			return
		}
	}
}

// mergeHeartbeat folds one worker's telemetry delta into the current job's
// stats (bytes, matrix, class splits, request counters, receive and serve
// spans). t1 is the driver's cluster-clock receive time of the beat. Called
// both from the heartbeat listener (beat true: heartbeats_total counts the
// beats that crossed the heartbeat connection) and from the end-of-run
// flush.
//
// Span timestamps in the beat are worker-local; they are rebased onto the
// run clock through the worker's offset estimate before merging, then any
// receive that would still precede its recorded push-send (residual
// estimation error) is clamped forward, so the driver's recorder only ever
// holds causally ordered spans.
func (c *Cluster) mergeHeartbeat(hb heartbeat, t1 float64, beat bool) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	run := c.curRun.Load()
	if run == nil {
		return
	}
	if len(hb.Spans) > 0 {
		offset := hb.Offset
		if !hb.HasOffset {
			// No completed sync exchange yet: a one-way estimate off this
			// beat's own timestamps. It ignores the upstream delay, which the
			// in-process flush does not have: with heartbeats off it is exact.
			offset = t1 - hb.T0
		}
		shift := offset - run.base()
		for i := range hb.Spans {
			hb.Spans[i].Start += shift
			hb.Spans[i].End += shift
		}
		for i := range hb.Spans {
			sp := &hb.Spans[i]
			if sp.Link == 0 {
				continue
			}
			if send, ok := c.cfg.Trace.Find(sp.Link); ok && sp.Start < send.Start {
				d := send.Start - sp.Start
				sp.Start += d
				sp.End += d
			}
		}
	}
	run.stats.merge(hb, c.cfg.Trace)
	reg := run.stats.Events.Registry()
	labels := obs.Labels{"worker": fmt.Sprintf("w%d", hb.Worker)}
	if beat {
		reg.Counter("heartbeats_total", labels).Inc()
	}
	if hb.HasOffset {
		reg.Gauge("clock_offset_sec", labels).Set(hb.Offset)
		reg.Gauge("clock_rtt_sec", labels).Set(hb.RTT)
		// The clock-sync exchange doubles as the link estimator's RTT feed
		// for the worker↔driver pair — free latency telemetry, no probes.
		c.links.ObserveRTT(siteLabel(hb.Worker), "driver", hb.RTT)
	}
	c.log.Debug("livecluster: heartbeat merged", "worker", hb.Worker, "flows", len(hb.Flows), "spans", len(hb.Spans))
}

// flushTelemetry drains every worker's buffer into the current job's stats,
// in-process. Holding each worker's hbMu excludes an in-flight ticker
// exchange, so every datum is merged exactly once and the job's post-run
// totals are exact.
func (c *Cluster) flushTelemetry() {
	for _, w := range c.workers {
		w.hbMu.Lock()
		c.mergeHeartbeat(w.drainBeat(), c.clusterNow(), false)
		w.hbMu.Unlock()
	}
}

// startHeartbeats begins the worker's ticker loop.
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
				w.sendHeartbeat()
			}
		}
	}()
}

// sendHeartbeat drains the worker's buffer and ships it to the driver,
// holding hbMu across the full exchange so the end-of-run flush serializes
// against it. A failed send restores the buffer for the next attempt.
func (w *worker) sendHeartbeat() {
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	hb := w.drainBeat()
	if err := w.exchangeHeartbeat(hb); err != nil {
		w.tel.restore(hb)
		w.dropHBConn()
	}
}

// drainBeat drains the worker's buffer into a beat carrying its name, its
// local clock and its current offset estimate. Callers hold hbMu (the
// ClockSync ring is not otherwise synchronized).
func (w *worker) drainBeat() heartbeat {
	hb := w.tel.drain()
	hb.Worker = w.id
	hb.T0 = w.localNow()
	hb.Offset = w.sync.Offset()
	hb.RTT = w.sync.RTT()
	hb.HasOffset = w.sync.Samples() > 0
	return hb
}

// exchangeHeartbeat runs one beat over the worker's dedicated (uncounted)
// driver connection, dialing it on first use. Callers hold hbMu.
func (w *worker) exchangeHeartbeat(hb heartbeat) error {
	if w.hbConn == nil {
		conn, err := net.Dial("tcp", w.cluster.hbSrv.addr())
		if err != nil {
			return err
		}
		w.hbConn = conn
		w.hbEnc = gob.NewEncoder(conn)
		w.hbDec = gob.NewDecoder(conn)
	}
	if err := w.hbEnc.Encode(&hb); err != nil {
		return err
	}
	var ack hbAck
	if err := w.hbDec.Decode(&ack); err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("livecluster: worker %d heartbeat rejected", w.id)
	}
	// One completed beat is one NTP-style clock sample: worker send (T0),
	// driver receive/reply (T1, T2), worker receive (now).
	w.sync.Observe(hb.T0, ack.T1, ack.T2, w.localNow())
	return nil
}

// dropHBConn discards the dedicated heartbeat connection after an error.
// Callers hold hbMu.
func (w *worker) dropHBConn() {
	if w.hbConn != nil {
		_ = w.hbConn.Close()
		w.hbConn = nil
		w.hbEnc = nil
		w.hbDec = nil
	}
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
		reg.Gauge("worker_heartbeat_age_sec", obs.Labels{"worker": fmt.Sprintf("w%d", i)}).Set(age)
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
