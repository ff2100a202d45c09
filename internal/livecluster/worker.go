package livecluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
	"wanshuffle/internal/trace"
)

// Wire protocol: exchanges multiplexed over persistent pooled connections,
// every byte of them a frame of stream.go's format. An exchange opens with one
// request frame (frameReq, its payload the request below); everything after it
// — records and replies — travels as chunk frames, and every exchange ends
// with the server's terminal frame, which carries any error. A client checks
// a connection out of its link to the peer (link.go), runs one exchange under
// the configured I/O deadline, and returns it; the server loops reading
// requests on each accepted connection until the peer closes it. Two exchange
// shapes exist:
//
//   - reqPushChunk: the request is followed by one chunk stream; the
//     receiver buckets its chunks into per-reduce shards as they arrive,
//     installs the output when the stream's terminal frame says it is whole,
//     and acknowledges with a terminal frame of its own. Everything it holds
//     until then is local to the handler, so a stream that breaks, is
//     abandoned or loses to a later attempt leaves nothing behind.
//   - reqFetchStream: the holder streams one reduce shard back as chunk
//     frames ending in the terminal frame.

type requestKind int

const (
	reqPushChunk requestKind = iota + 1
	reqFetchStream
)

type request struct {
	Kind      requestKind
	ShuffleID int
	MapPart   int
	Reduce    int
	// Attempt is the map-task attempt a push stream ships. Receivers keep
	// the highest attempt per (shuffle, map) — duplicate pushes from
	// retried tasks are idempotent, last-write-wins by attempt.
	Attempt int
	// Trace/Parent/Span propagate causal span context across the wire:
	// Trace is the run's trace ID, Parent the span the server-side span
	// should nest under (the originating map task for a push, the fetch
	// span for a fetch), and Span the client-side send span a receive
	// links back to. From is the sender's site index, for src/dst
	// attribution on the server-side span.
	Trace  trace.TraceID
	Parent trace.SpanID
	Span   trace.SpanID
	From   int
}

// A request frame's payload is the kind byte, seven uvarints (ShuffleID,
// MapPart, Reduce, Attempt, Parent, Span, From) and the trace ID behind its
// uvarint length. maxRequestPayload is the cap a server reads request frames
// under, checked like any frame's before anything is allocated.
const (
	maxTraceID        = 64
	maxRequestPayload = 1 + 7*binary.MaxVarintLen64 + 1 + maxTraceID
)

// writeRequest opens an exchange on w with req as one request frame.
func writeRequest(w io.Writer, req *request) error {
	if len(req.Trace) > maxTraceID {
		return fmt.Errorf("livecluster: trace ID of %d bytes, above the %d-byte cap", len(req.Trace), maxTraceID)
	}
	buf := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(buf)
	room := append(slices.Grow(buf.raw[:0], frameHeaderMax)[:frameHeaderMax], byte(req.Kind))
	for _, v := range [...]int64{int64(req.ShuffleID), int64(req.MapPart), int64(req.Reduce), int64(req.Attempt),
		int64(req.Parent), int64(req.Span), int64(req.From), int64(len(req.Trace))} {
		room = binary.AppendUvarint(room, uint64(v))
	}
	buf.raw = append(room, req.Trace...)
	return writeFrame(w, buf.raw, frameReq, 0, 0)
}

// readRequest reads the frame that opens an exchange and decodes its payload,
// every length checked against the bytes that are there. Any error leaves the
// connection out of step: nothing says what follows the frame.
func readRequest(br *bufio.Reader) (request, error) {
	fr, err := readChunkFrame(br, maxRequestPayload)
	if err != nil {
		return request{}, err
	}
	if !fr.req || len(fr.payload) == 0 {
		return request{}, errors.New("livecluster: an exchange opened with a frame that is not a request")
	}
	var f [8]int64
	rest := fr.payload[1:]
	for i := range f {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > math.MaxInt64 {
			return request{}, fmt.Errorf("livecluster: request field %d is malformed", i)
		}
		f[i], rest = int64(v), rest[n:]
	}
	if f[7] != int64(len(rest)) {
		return request{}, fmt.Errorf("livecluster: request names a %d-byte trace ID and carries %d bytes", f[7], len(rest))
	}
	return request{
		Kind: requestKind(fr.payload[0]), ShuffleID: int(f[0]), MapPart: int(f[1]), Reduce: int(f[2]), Attempt: int(f[3]),
		Parent: trace.SpanID(f[4]), Span: trace.SpanID(f[5]), From: int(f[6]), Trace: trace.TraceID(rest),
	}, nil
}

// spanCtx is the causal context a client attaches to its data-plane
// requests, filled in by the driver-side task that issued the operation.
type spanCtx struct {
	trace  trace.TraceID
	parent trace.SpanID // span the server-side span nests under
	span   trace.SpanID // client-side send span (pushes; receive links to it)
}

// worker is one live cluster member: a loopback TCP server storing map
// output bucketed per reduce, plus one link per peer for its pushes and
// fetches.
type worker struct {
	id      int
	cluster *Cluster
	// srv accepts the peers' connections and serves their exchanges.
	srv *server

	// store holds the worker's shuffle blocks: received push outputs and
	// fetch-mode local map outputs, flat until their partitioner is ready
	// and per-reduce shards afterwards. With Config.MemoryBudget set it is
	// a blockstore.SpillStore, so an aggregator's resident heap stays
	// bounded while cold outputs ride on disk. The store locks internally.
	store blockstore.Store
	// links[dst] is this worker's link to worker dst, wired by the cluster
	// once every worker listens; links[id] is nil, there is no link to
	// oneself.
	links []*link

	// bucketBuilds counts deferred whole-output bucketing passes; pushes
	// bucketed incrementally on arrival never increment it.
	bucketBuilds atomic.Int64

	// stallCh, when non-nil, parks request handlers (tests simulate a
	// hung peer with it).
	stallMu sync.Mutex
	stallCh chan struct{}

	closed atomic.Bool

	// Telemetry: tel buffers everything this worker accounts — its links'
	// exchanges, its server-side spans — until the driver merges it, on the
	// beats of the ticker goroutine and in the end-of-run flush. hbMu
	// serializes one drain→merge against the other's.
	tel    *workerTel
	hbMu   sync.Mutex
	stopHB chan struct{}
	hbWG   sync.WaitGroup

	// ids namespaces the worker's span IDs (participant id+2).
	ids *trace.IDAllocator
}

func newWorker(id int, c *Cluster) (*worker, error) {
	store, err := c.newStore(id)
	if err != nil {
		return nil, fmt.Errorf("livecluster: worker %d block store: %w", id, err)
	}
	w := &worker{
		id:      id,
		cluster: c,
		store:   store,
		tel:     newWorkerTel(),
		ids:     trace.NewIDAllocator(id + 2),
	}
	if w.srv, err = serve(w.handleConn); err != nil {
		_ = store.Close()
		return nil, fmt.Errorf("livecluster: worker %d listen: %w", id, err)
	}
	return w, nil
}

func (w *worker) close() {
	if w.closed.CompareAndSwap(false, true) {
		if w.stopHB != nil {
			close(w.stopHB)
		}
		for _, l := range w.links {
			if l != nil { // none to itself
				l.closeAll()
			}
		}
		w.resumeRequests() // unpark any test-stalled handlers
	}
	w.srv.close()
	w.hbWG.Wait()
	_ = w.store.Close()
}

// server is one accept loop on a loopback port: the listener, the
// connections it accepted that are still open, and the goroutines handling
// them. Each worker serves its peers' exchanges through one.
type server struct {
	ln   net.Listener
	done chan struct{}  // closed once the accept loop has returned
	wg   sync.WaitGroup // the handlers

	mu    sync.Mutex
	conns map[net.Conn]bool
}

// serve listens on an ephemeral loopback port and runs handle on a goroutine
// per accepted connection, closing the connection when handle returns.
func serve(handle func(net.Conn)) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, done: make(chan struct{}), conns: make(map[net.Conn]bool)}
	go func() {
		defer close(s.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				handle(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close()
			}()
		}
	}()
	return s, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// close stops accepting and, once the accept loop has returned and can add
// no more, closes the open connections — a handler parked reading a
// persistent connection returns on that — and waits for every handler.
func (s *server) close() {
	_ = s.ln.Close()
	<-s.done
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handleConn serves exchanges on one persistent connection until the peer
// hangs up or a framing error breaks the stream.
func (w *worker) handleConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		w.maybeStall()
		switch req.Kind {
		case reqPushChunk:
			err = w.receivePush(conn, br, &req)
		case reqFetchStream:
			err = w.streamFetch(conn, &req)
		default:
			err = writeLastFrame(conn, fmt.Errorf("unknown request kind %d", req.Kind))
		}
		if !intact(err) {
			return // broken stream: drop the connection
		}
	}
}

// stallRequests parks every subsequent request handler until
// resumeRequests is called — tests simulate a hung peer with it, proving
// client-side deadlines fire instead of wedging the run.
func (w *worker) stallRequests() {
	w.stallMu.Lock()
	defer w.stallMu.Unlock()
	if w.stallCh == nil {
		w.stallCh = make(chan struct{})
	}
}

// resumeRequests releases handlers parked by stallRequests.
func (w *worker) resumeRequests() {
	w.stallMu.Lock()
	defer w.stallMu.Unlock()
	if w.stallCh != nil {
		close(w.stallCh)
		w.stallCh = nil
	}
}

func (w *worker) maybeStall() {
	w.stallMu.Lock()
	ch := w.stallCh
	w.stallMu.Unlock()
	if ch != nil {
		<-ch
	}
}

// spec resolves a shuffle ID through the cluster's control plane.
func (w *worker) spec(shuffleID int) *rdd.ShuffleSpec {
	if s, ok := w.cluster.specs.Load(shuffleID); ok {
		return s.(*rdd.ShuffleSpec)
	}
	return nil
}

// receivePush consumes one push stream: chunks bucketed per reduce as they
// arrive when the partitioner is ready and kept flat otherwise, the output
// installed at the terminal frame, the sender acknowledged with a terminal
// frame on conn. Everything until the install is local to this call. A
// framing error is fatal for the connection and the only error returned;
// whatever else fails — a bad payload, a chunk out of turn, the store, the
// sender giving up — travels in the acknowledgement after the stream is
// drained.
func (w *worker) receivePush(conn io.Writer, br *bufio.Reader, req *request) error {
	run := w.cluster.curRun.Load()
	t0 := time.Now() // after the request arrived: a receive cannot start before its send
	spec := w.spec(req.ShuffleID)
	out := blockstore.Output{Attempt: req.Attempt}
	if spec != nil && spec.Partitioner.Ready() {
		out.Shards = make([][]rdd.Pair, spec.Partitioner.NumPartitions())
	}
	var flat [][]rdd.Pair
	var nrecs int
	got, err := readStream(br, func(records []rdd.Pair) error {
		if spec == nil {
			return fmt.Errorf("worker %d: unknown shuffle %d", w.id, req.ShuffleID)
		}
		nrecs += len(records)
		if out.Shards == nil {
			flat = append(flat, records)
			return nil
		}
		for r, bucket := range rdd.BucketRecords(spec, records) {
			out.Shards[r] = append(out.Shards[r], bucket...)
		}
		return nil
	})
	if !intact(err) {
		return err
	}
	if err == nil {
		if out.Shards == nil {
			out.Records = slices.Concat(flat...)
		}
		err = w.install(req.ShuffleID, req.MapPart, out)
	}
	// Receiver occupancy (the paper's V rows): the aggregator side of a
	// push, parented to the originating map task and linked to its send
	// span, so every push has its matching receive in the causal DAG.
	// Like every server-side span it is stamped on the run's clock, the one
	// the driver-side spans are on, and buffered until the next merge.
	if err == nil && run != nil {
		w.tel.addSpan(trace.Span{
			Trace: req.Trace, ID: w.ids.Next(), Parent: req.Parent, Link: req.Span,
			Kind: trace.KindReceive, Host: topology.HostID(w.id),
			Stage: run.stageOfShuffle(req.ShuffleID), Part: req.MapPart,
			Shuffle: req.ShuffleID,
			SrcSite: siteLabel(req.From), DstSite: siteLabel(w.id),
			Bytes: float64(got.raw), Records: nrecs,
			Start: run.at(t0), End: run.since(),
		})
	}
	return writeLastFrame(conn, err)
}

// install stores out under (shuffle, mapPart) in the worker's block
// store, which keeps duplicate pushes idempotent (last-write-wins by
// attempt) and may spill cold outputs under a memory budget.
func (w *worker) install(shuffleID, mapPart int, out blockstore.Output) error {
	_, dup, err := w.store.Put(blockstore.Key{Shuffle: shuffleID, MapPart: mapPart}, out)
	if err != nil {
		return fmt.Errorf("worker %d: storing shuffle %d map %d: %w", w.id, shuffleID, mapPart, err)
	}
	if dup {
		w.cluster.counter("push_duplicates_total", nil).Inc()
	}
	return nil
}

// streamFetch serves one reduce shard as a chunk stream. Errors travel in
// the terminal frame; the one returned is intact unless the stream broke.
// A stream whose chunks all went out records a serve span — the holder side
// of a fetch, nested under the requesting fetch span — so critical-path
// analysis can attribute fetch time to the link it actually crossed. Like a
// receive span before its acknowledgement, it is recorded before the
// terminal frame goes out: a fetch that has returned has its serve span in
// this worker's telemetry, so the flush at the end of the job cannot miss
// it. The price is the same as for a receive span: if the terminal frame
// itself cannot be written the span stays, and when the fetching side
// retries on a fresh connection (link.exchange) a second serve span
// joins it under the same fetch span — serve bytes sum to the fetch's only
// over exchanges that needed no retry.
func (w *worker) streamFetch(conn io.Writer, req *request) error {
	run := w.cluster.curRun.Load()
	t0 := time.Now()
	records, err := w.shardOf(req.ShuffleID, req.MapPart, req.Reduce)
	if err != nil {
		return writeLastFrame(conn, err)
	}
	return writeStream(conn, records, w.cluster.cfg.ChunkRecords, w.cluster.cfg.Compression, func(sent streamTotals) {
		if run == nil {
			return
		}
		w.tel.addSpan(trace.Span{
			Trace: req.Trace, ID: w.ids.Next(), Parent: req.Parent,
			Kind: trace.KindServe, Host: topology.HostID(w.id),
			Stage: run.stageOfShuffle(req.ShuffleID), Part: req.MapPart,
			Shuffle: req.ShuffleID,
			SrcSite: siteLabel(w.id), DstSite: siteLabel(req.From),
			Bytes: float64(sent.raw), Records: len(records),
			Start: run.at(t0), End: run.since(),
		})
	})
}

// storeMapOutput stores a locally produced map output (fetch mode, and a
// push-mode map task that ran on its aggregator), run through the same
// bucketing and idempotency path as pushed outputs.
func (w *worker) storeMapOutput(shuffleID, mapPart, attempt int, records []rdd.Pair) error {
	out := blockstore.Output{Attempt: attempt}
	if spec := w.spec(shuffleID); spec != nil && spec.Partitioner.Ready() {
		out.Shards = rdd.BucketRecords(spec, records)
	} else {
		out.Records = records
	}
	return w.install(shuffleID, mapPart, out)
}

// resetRun clears the previous job's stored outputs (shuffle IDs are
// graph-scoped, so leftovers could collide with the next job's).
func (w *worker) resetRun() { _ = w.store.Reset() }

func (w *worker) storedOutputs() int { return w.store.Len() }

// bucketFn builds the store's BucketFunc for one shuffle: resolve the
// spec, require a ready partitioner, and count the deferred whole-output
// bucketing pass. The store invokes it at most once per output (the
// exactly-once half of incremental bucketing).
func (w *worker) bucketFn(shuffleID int) blockstore.BucketFunc {
	return func(records []rdd.Pair) ([][]rdd.Pair, error) {
		spec := w.spec(shuffleID)
		if spec == nil {
			return nil, fmt.Errorf("worker %d: unknown shuffle %d", w.id, shuffleID)
		}
		if !spec.Partitioner.Ready() {
			return nil, fmt.Errorf("worker %d: shuffle %d partitioner not ready", w.id, shuffleID)
		}
		w.bucketBuilds.Add(1)
		w.cluster.counter("bucket_builds_total", nil).Inc()
		return rdd.BucketRecords(spec, records), nil
	}
}

// shardOf returns one reduce shard of a stored output. Flat outputs
// (range-partitioned shuffles stored before the barrier) are bucketed
// exactly once, on the first read — never re-bucketed per read. A spilled
// output stays on disk and the store decodes just this shard. The shard is
// the store's own slice (or a fresh one off disk): streamFetch encodes it,
// a local reader copies it (plan.Task.Gather), and neither writes to it.
func (w *worker) shardOf(shuffleID, mapPart, reduce int) ([]rdd.Pair, error) {
	shard, err := w.store.Shard(blockstore.Key{Shuffle: shuffleID, MapPart: mapPart}, reduce, w.bucketFn(shuffleID))
	if errors.Is(err, blockstore.ErrNotFound) {
		return nil, fmt.Errorf("worker %d: no output for shuffle %d map %d: %w", w.id, shuffleID, mapPart, err)
	}
	return shard, err
}

// push ships a map output partition to worker dst as one chunk stream on one
// of the link's pooled connections. The receiver installs the output when
// the stream's terminal frame reaches it, so a push that failed part-way is
// invisible and safely retried under the same or a later attempt. It returns
// the record-codec bytes of the chunks it sent — what the push's receive
// span reports.
func (w *worker) push(dst, shuffleID, mapPart, attempt int, records []rdd.Pair, sc spanCtx) (int64, error) {
	var sent streamTotals
	err := w.links[dst].exchange("push", func(pc *pooledConn) (int64, error) {
		if err := writeRequest(pc.conn, &request{
			Kind: reqPushChunk, ShuffleID: shuffleID, MapPart: mapPart, Attempt: attempt,
			Trace: sc.trace, Parent: sc.parent, Span: sc.span, From: w.id,
		}); err != nil {
			return 0, err
		}
		// Each chunk is encoded just before it is written, so at most one
		// encoded chunk exists at a time.
		err := writeStream(pc.conn, records, w.cluster.cfg.ChunkRecords, w.cluster.cfg.Compression,
			func(st streamTotals) { sent = st })
		if !intact(err) {
			return 0, err
		}
		// The receiver acknowledges the way a fetch ends: a stream whose
		// terminal frame carries what failed, if anything, and which has no
		// chunks to give.
		_, ack := readStream(pc.br, func([]rdd.Pair) error {
			return errors.New("livecluster: data frame in place of a push acknowledgement")
		})
		if err == nil || !intact(ack) {
			err = ack // otherwise this side abandoned the push: its cause outranks the echo
		}
		return sent.saved, err
	})
	if err != nil {
		return 0, fmt.Errorf("livecluster: push %d/%d to worker %d: %w", shuffleID, mapPart, dst, err)
	}
	w.tel.op(reqPushChunk)
	w.cluster.counter("push_chunks_total", nil).Add(int64(sent.chunks))
	return sent.raw, nil
}

// fetch pulls one (map, reduce) shard from worker holder as a chunk stream and
// returns the decoded chunks as they are, in order, for the caller to
// gather at its final size, plus their record-codec bytes (what the
// holder's serve span reports). sc parents that serve span under the
// requesting fetch span.
func (w *worker) fetch(holder, shuffleID, mapPart, reduce int, sc spanCtx) ([][]rdd.Pair, int64, error) {
	var out [][]rdd.Pair
	var got streamTotals
	err := w.links[holder].exchange("shuffle", func(pc *pooledConn) (int64, error) {
		out = nil // reset on transparent retry
		if err := writeRequest(pc.conn, &request{
			Kind: reqFetchStream, ShuffleID: shuffleID, MapPart: mapPart, Reduce: reduce,
			Trace: sc.trace, Parent: sc.parent, From: w.id,
		}); err != nil {
			return 0, err
		}
		var err error
		got, err = readStream(pc.br, func(records []rdd.Pair) error {
			out = append(out, records)
			return nil
		})
		return got.saved, err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("livecluster: fetch %d/%d/%d from worker %d: %w", shuffleID, mapPart, reduce, holder, err)
	}
	w.tel.op(reqFetchStream)
	w.cluster.counter("fetch_chunks_total", nil).Add(int64(got.chunks))
	return out, got.raw, nil
}

// remoteError is a failure reported by the peer over a healthy exchange:
// the connection is fine, so it is pooled again and the error is never
// retried transparently.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return e.msg }

// localError is a failure on this side of an exchange that left the stream
// intact: a chunk that could not be encoded and so was never written (the
// sender ends the stream in order), or one the reader could not use (it
// drains the stream to its end). The connection stays healthy and pooled,
// and the error is never retried transparently.
type localError struct{ err error }

func (e localError) Error() string { return e.err.Error() }
func (e localError) Unwrap() error { return e.err }

// intact reports whether an exchange that ended with err, nil included, left
// its connection in step with the peer: the peer answered, or this side ended
// the stream in order.
func intact(err error) bool {
	if err == nil {
		return true
	}
	var remote remoteError // declared on the failure path only: they escape
	var local localError
	return errors.As(err, &remote) || errors.As(err, &local)
}

// counter resolves a run-scoped metrics counter; nil (a no-op counter)
// between jobs. Registry writes are thread-safe and do not affect the
// byte-conservation invariant, so workers update them directly.
func (c *Cluster) counter(name string, labels obs.Labels) *obs.Counter {
	if run := c.curRun.Load(); run != nil {
		return run.stats.Events.Registry().Counter(name, labels)
	}
	return nil
}
