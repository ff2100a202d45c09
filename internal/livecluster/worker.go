package livecluster

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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

// Wire protocol: exchanges multiplexed over persistent pooled connections.
// gob carries one control message per exchange, the request that opens it;
// everything after it — records and replies — travels as raw chunk frames
// (stream.go), and every exchange ends with the server's terminal frame,
// which carries any error. A client checks a connection out of its link to
// the peer (link.go), runs one exchange under the configured I/O deadline,
// and returns it; the server loops decoding requests on each accepted
// connection until the peer closes it. The server reads a connection
// through one bufio.Reader shared by its gob decoder and the frame reader:
// handed an io.ByteReader, gob reads one message at a time and never past
// it, so the frames that follow a request are still there for the frame
// reader. Two exchange shapes exist:
//
//   - reqPushChunk: the request is followed by data chunk frames and a
//     terminal frame; the receiver buckets chunks into per-reduce shards
//     as they arrive, installs the assembled output once every chunk
//     (across the push's parallel streams) is present, and acknowledges
//     each stream with a terminal frame of its own.
//   - reqFetchStream: the holder streams one reduce shard back as chunk
//     frames ending in the terminal frame.

type requestKind int

const (
	reqPushChunk requestKind = iota + 1
	reqFetchStream
)

// (Heartbeats use their own wire types on a dedicated driver connection —
// see heartbeat.go — so the data-plane request framing stays untouched.)

type request struct {
	Kind      requestKind
	ShuffleID int
	MapPart   int
	Reduce    int
	// Attempt is the map-task attempt a push stream ships. Receivers keep
	// the highest attempt per (shuffle, map) — duplicate pushes from
	// retried tasks are idempotent, last-write-wins by attempt.
	Attempt int
	// Chunks is the total data-chunk count of the push across all of its
	// parallel streams; the receiver installs the output once all arrived.
	Chunks int
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

// spanCtx is the causal context a client attaches to its data-plane
// requests, filled in by the driver-side task that issued the operation.
type spanCtx struct {
	trace  trace.TraceID
	parent trace.SpanID // span the server-side span nests under
	span   trace.SpanID // client-side send span (pushes; receive links to it)
}

// pushKey identifies one in-flight push assembly.
type pushKey struct{ shuffle, mapPart, attempt int }

// pushAssembly accumulates one push's chunks across its parallel streams.
// Chunks are bucketed the moment they arrive (when the partitioner is
// ready) and merged in sequence order on completion, so parallel streams
// cannot reorder records.
type pushAssembly struct {
	total    int                  // expected data chunks
	got      int                  // distinct chunks received
	flat     map[int][]rdd.Pair   // seq → records (partitioner not ready)
	bucketed map[int][][]rdd.Pair // seq → per-reduce buckets
	ready    bool                 // partitioner was ready at assembly start
	nParts   int
}

// worker is one live cluster member: a loopback TCP server storing map
// output bucketed per reduce, plus one link per peer for its pushes and
// fetches.
type worker struct {
	id      int
	addr    string
	ln      net.Listener
	cluster *Cluster

	// store holds the worker's shuffle blocks: assembled push outputs and
	// fetch-mode local map outputs, flat until their partitioner is ready
	// and per-reduce shards afterwards. With Config.MemoryBudget set it is
	// a blockstore.SpillStore, so an aggregator's resident heap stays
	// bounded while cold outputs ride on disk. The store locks internally;
	// w.mu only guards the in-flight push assemblies and connection set.
	store blockstore.Store
	// links[dst] is this worker's link to worker dst (itself included),
	// wired by the cluster once every worker listens.
	links []*link

	mu      sync.Mutex
	pending map[pushKey]*pushAssembly
	conns   map[net.Conn]bool // open server-side connections

	// bucketBuilds counts deferred whole-output bucketing passes; pushes
	// bucketed incrementally on arrival never increment it.
	bucketBuilds atomic.Int64

	// stallCh, when non-nil, parks request handlers (tests simulate a
	// hung peer with it).
	stallMu sync.Mutex
	stallCh chan struct{}

	closed  atomic.Bool
	serveWG sync.WaitGroup

	// Telemetry: tel buffers everything this worker accounts — its links'
	// exchanges, its server-side spans — until the driver merges it, on
	// heartbeats sent by the ticker goroutine over a dedicated (uncounted)
	// connection and in the end-of-run flush. hbMu serializes one full
	// drain→send→ack exchange against that flush.
	tel    *workerTel
	hbMu   sync.Mutex
	hbConn net.Conn
	hbEnc  *gob.Encoder
	hbDec  *gob.Decoder
	stopHB chan struct{}
	hbWG   sync.WaitGroup

	// Clock plane: each worker stamps its spans on its own local clock
	// (epoch + injected test skew) and aligns it to the driver through the
	// ClockSync samples its heartbeats collect. ids namespaces the
	// worker's span IDs (participant id+2). sync is guarded by hbMu.
	epoch time.Time
	skew  float64
	sync  trace.ClockSync
	ids   *trace.IDAllocator
}

// localNow reads the worker's local telemetry clock: seconds since its
// own epoch, plus any injected test skew. Deliberately NOT the driver's
// clock — alignment happens driver-side from heartbeat offset estimates.
func (w *worker) localNow() float64 { return time.Since(w.epoch).Seconds() + w.skew }

func newWorker(id int, c *Cluster) (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("livecluster: worker %d listen: %w", id, err)
	}
	store, err := c.newStore(id)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("livecluster: worker %d block store: %w", id, err)
	}
	w := &worker{
		id:      id,
		addr:    ln.Addr().String(),
		ln:      ln,
		cluster: c,
		store:   store,
		pending: make(map[pushKey]*pushAssembly),
		conns:   make(map[net.Conn]bool),
		tel:     newWorkerTel(),
		epoch:   time.Now(),
		ids:     trace.NewIDAllocator(id + 2),
	}
	if id < len(c.cfg.ClockSkew) {
		w.skew = c.cfg.ClockSkew[id]
	}
	w.serveWG.Add(1)
	go w.serve()
	return w, nil
}

func (w *worker) close() {
	if w.closed.CompareAndSwap(false, true) {
		if w.stopHB != nil {
			close(w.stopHB)
		}
		_ = w.ln.Close()
		for _, l := range w.links {
			l.closeAll()
		}
		w.resumeRequests() // unpark any test-stalled handlers
		// Unblock handlers parked in Decode on persistent connections.
		w.mu.Lock()
		for conn := range w.conns {
			_ = conn.Close()
		}
		w.mu.Unlock()
	}
	w.serveWG.Wait()
	w.hbWG.Wait()
	w.hbMu.Lock()
	w.dropHBConn()
	w.hbMu.Unlock()
	_ = w.store.Close()
}

func (w *worker) serve() {
	defer w.serveWG.Done()
	var connWG sync.WaitGroup
	defer connWG.Wait()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.mu.Lock()
		w.conns[conn] = true
		w.mu.Unlock()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			defer func() {
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
				_ = conn.Close()
			}()
			w.handleConn(conn)
		}()
	}
}

// handleConn serves exchanges on one persistent connection until the peer
// hangs up or a framing error breaks the stream.
func (w *worker) handleConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	dec := gob.NewDecoder(br)
	for {
		var req request
		err := dec.Decode(&req)
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
		if err != nil {
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

// receivePush consumes one push stream: chunk frames until the terminal
// frame, bucketed into the (shuffle, map, attempt) assembly as they
// arrive, then acknowledged with a terminal frame on conn. A framing error
// is fatal for the connection and the only error returned; a payload or
// store error travels in the acknowledgement after the stream is drained.
func (w *worker) receivePush(conn io.Writer, br *bufio.Reader, req *request) error {
	run := w.cluster.curRun.Load()
	t0 := w.localNow()
	var chunkErr error
	var nrecs int
	var rawBytes int64
	for {
		fr, err := readChunkFrame(br, maxFramePayload)
		if err != nil {
			w.abortAssembly(req)
			return err
		}
		if fr.last {
			if fr.err != "" && chunkErr == nil {
				chunkErr = errors.New(fr.err) // the sender gave the push up
			}
			break
		}
		if chunkErr != nil {
			continue // drain the rest of a stream that already failed
		}
		records, err := fr.records()
		if err != nil {
			chunkErr = err
			continue
		}
		nrecs += len(records)
		rawBytes += fr.codecBytes()
		if err := w.addPushChunk(req, fr.seq, records); err != nil {
			chunkErr = err
		}
	}
	if chunkErr != nil {
		w.abortAssembly(req)
	} else {
		chunkErr = w.finishPushStream(req)
	}
	// Receiver occupancy (the paper's V rows): the aggregator side of a
	// push, parented to the originating map task and linked to its send
	// span, so every chunk send has a matching receive in the causal DAG.
	// Like every server-side span it is stamped on the worker's local clock
	// and buffered; the driver rebases it onto the run clock when it merges
	// the buffer.
	if chunkErr == nil && run != nil {
		w.tel.addSpan(trace.Span{
			Trace: req.Trace, ID: w.ids.Next(), Parent: req.Parent, Link: req.Span,
			Kind: trace.KindReceive, Host: topology.HostID(w.id),
			Stage: run.stageOfShuffle(req.ShuffleID), Part: req.MapPart,
			Shuffle: req.ShuffleID,
			SrcSite: siteLabel(req.From), DstSite: siteLabel(w.id),
			Bytes: float64(rawBytes), Records: nrecs,
			Start: t0, End: w.localNow(),
		})
	}
	return writeLastFrame(conn, chunkErr)
}

// assemblyFor returns the push assembly for req, creating it on first use.
// Callers hold w.mu.
func (w *worker) assemblyFor(req *request) *pushAssembly {
	key := pushKey{req.ShuffleID, req.MapPart, req.Attempt}
	a, ok := w.pending[key]
	if !ok {
		a = &pushAssembly{total: req.Chunks}
		if spec := w.spec(req.ShuffleID); spec != nil && spec.Partitioner.Ready() {
			a.ready = true
			a.nParts = spec.Partitioner.NumPartitions()
			a.bucketed = make(map[int][][]rdd.Pair)
		} else {
			a.flat = make(map[int][]rdd.Pair)
		}
		w.pending[key] = a
	}
	return a
}

// addPushChunk folds one arrived chunk into its assembly, bucketing it
// per reduce immediately when the partitioner is ready — the incremental
// half of incremental bucketing.
func (w *worker) addPushChunk(req *request, seq int, records []rdd.Pair) error {
	if seq < 0 || seq >= req.Chunks {
		return fmt.Errorf("worker %d: push chunk seq %d out of range [0,%d)", w.id, seq, req.Chunks)
	}
	spec := w.spec(req.ShuffleID)
	if spec == nil {
		return fmt.Errorf("worker %d: unknown shuffle %d", w.id, req.ShuffleID)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.assemblyFor(req)
	if a.ready {
		if _, dup := a.bucketed[seq]; !dup {
			a.bucketed[seq] = rdd.BucketRecords(spec, records)
			a.got++
		}
	} else {
		if _, dup := a.flat[seq]; !dup {
			a.flat[seq] = records
			a.got++
		}
	}
	return nil
}

// finishPushStream runs at a stream's terminal frame: if every chunk of
// the push (across its parallel streams) has arrived, merge them in
// sequence order and install the output.
func (w *worker) finishPushStream(req *request) error {
	key := pushKey{req.ShuffleID, req.MapPart, req.Attempt}
	w.mu.Lock()
	a := w.assemblyFor(req)
	if a.got < a.total {
		w.mu.Unlock()
		return nil // sibling streams still in flight
	}
	delete(w.pending, key)
	out := blockstore.Output{Attempt: req.Attempt}
	// Every chunk is in hand (got counts distinct in-range seqs), so each
	// merged slice is allocated once at its final size.
	parts := make([][]rdd.Pair, a.total)
	if a.ready {
		out.Shards = make([][]rdd.Pair, a.nParts)
		for r := range out.Shards {
			for seq := range parts {
				parts[seq] = a.bucketed[seq][r]
			}
			out.Shards[r] = slices.Concat(parts...)
		}
	} else {
		for seq := range parts {
			parts[seq] = a.flat[seq]
		}
		out.Records = slices.Concat(parts...)
	}
	w.mu.Unlock()
	return w.install(req.ShuffleID, req.MapPart, out)
}

// abortAssembly discards a partial assembly after a broken or failed
// stream, so a retried push starts clean.
func (w *worker) abortAssembly(req *request) {
	w.mu.Lock()
	delete(w.pending, pushKey{req.ShuffleID, req.MapPart, req.Attempt})
	w.mu.Unlock()
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
// the terminal frame; a nil error return means the exchange completed.
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
	t0 := w.localNow()
	records, err := w.shardOf(req.ShuffleID, req.MapPart, req.Reduce)
	if err != nil {
		return writeLastFrame(conn, err)
	}
	codec := w.cluster.cfg.Compression
	var sent int64 // record-codec bytes, what the fetching side will count
	for seq, part := range splitRecords(records, w.cluster.cfg.ChunkRecords) {
		raw, _, err := sendChunk(conn, seq, part, codec)
		if err != nil {
			var local localError
			if errors.As(err, &local) {
				return writeLastFrame(conn, err)
			}
			return err
		}
		sent += raw
	}
	if run != nil {
		w.tel.addSpan(trace.Span{
			Trace: req.Trace, ID: w.ids.Next(), Parent: req.Parent,
			Kind: trace.KindServe, Host: topology.HostID(w.id),
			Stage: run.stageOfShuffle(req.ShuffleID), Part: req.MapPart,
			Shuffle: req.ShuffleID,
			SrcSite: siteLabel(w.id), DstSite: siteLabel(req.From),
			Bytes: float64(sent), Records: len(records),
			Start: t0, End: w.localNow(),
		})
	}
	return writeLastFrame(conn, nil)
}

// storeMapOutput stores a locally produced map output (fetch mode), run
// through the same bucketing and idempotency path as pushed outputs.
func (w *worker) storeMapOutput(shuffleID, mapPart, attempt int, records []rdd.Pair) error {
	out := blockstore.Output{Attempt: attempt}
	if spec := w.spec(shuffleID); spec != nil && spec.Partitioner.Ready() {
		out.Shards = rdd.BucketRecords(spec, records)
	} else {
		out.Records = records
	}
	return w.install(shuffleID, mapPart, out)
}

// resetRun clears the previous job's stored outputs and any in-flight
// push assemblies (shuffle IDs are graph-scoped, so leftovers could
// collide with the next job's).
func (w *worker) resetRun() {
	w.mu.Lock()
	w.pending = make(map[pushKey]*pushAssembly)
	w.mu.Unlock()
	_ = w.store.Reset()
}

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

// shardOf returns one reduce shard of a stored output: an O(1) per-reduce
// lookup once the output is bucketed. Flat outputs (range-partitioned
// shuffles stored before the barrier) are bucketed exactly once, on the
// first fetch — never re-bucketed per fetch. Spilled outputs reload from
// disk transparently inside the store.
func (w *worker) shardOf(shuffleID, mapPart, reduce int) ([]rdd.Pair, error) {
	shards, err := w.store.Shards(blockstore.Key{Shuffle: shuffleID, MapPart: mapPart}, w.bucketFn(shuffleID))
	if errors.Is(err, blockstore.ErrNotFound) {
		return nil, fmt.Errorf("worker %d: no output for shuffle %d map %d", w.id, shuffleID, mapPart)
	}
	if err != nil {
		return nil, err
	}
	if reduce < 0 || reduce >= len(shards) {
		return nil, fmt.Errorf("worker %d: reduce %d out of range", w.id, reduce)
	}
	return shards[reduce], nil
}

// pushStreams bounds the parallel chunk streams of one push.
func (w *worker) pushStreams(chunks int) int {
	n := w.cluster.cfg.PushFanout
	if n < 1 {
		n = 1
	}
	if chunks < 1 {
		return 1
	}
	if n > chunks {
		return chunks
	}
	return n
}

// push ships a map output partition to worker dst as chunked streams over
// up to Config.PushFanout of the link's pooled connections in parallel.
// The receiver reassembles by sequence number and installs the output
// atomically once every chunk arrived, so a partially failed push is
// invisible and safely retried under the same or a later attempt. It
// returns the record-codec bytes of the chunks it sent — what the push's
// receive spans add up to.
func (w *worker) push(dst, shuffleID, mapPart, attempt int, records []rdd.Pair, sc spanCtx) (int64, error) {
	codec := w.cluster.cfg.Compression
	chunks := splitRecords(records, w.cluster.cfg.ChunkRecords)
	streams := w.pushStreams(len(chunks))
	errs := make([]error, streams)
	sent := make([]int64, streams)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = w.links[dst].exchange("push", func(pc *pooledConn) (int64, error) {
				sent[s] = 0 // reset on transparent retry
				if err := pc.enc.Encode(&request{
					Kind: reqPushChunk, ShuffleID: shuffleID, MapPart: mapPart,
					Attempt: attempt, Chunks: len(chunks),
					Trace: sc.trace, Parent: sc.parent, Span: sc.span, From: w.id,
				}); err != nil {
					return 0, err
				}
				// Each chunk is encoded just before it is written, so at
				// most one encoded chunk per stream exists at a time.
				var savings int64
				var abandoned error
				for seq := s; seq < len(chunks); seq += streams {
					raw, saved, err := sendChunk(pc.conn, seq, chunks[seq], codec)
					var local localError
					if errors.As(err, &local) {
						// The chunk was never written: end the stream in
						// order, so the receiver drops the assembly and the
						// connection stays usable.
						abandoned = err
						break
					}
					if err != nil {
						return 0, err
					}
					sent[s] += raw
					savings += saved
				}
				if err := writeLastFrame(pc.conn, abandoned); err != nil {
					return 0, err
				}
				// The receiver acknowledges the stream the way a fetch
				// ends: a terminal frame, carrying what failed if anything.
				ack, err := readChunkFrame(pc.br, maxFramePayload)
				switch {
				case err != nil:
					return 0, err
				case !ack.last:
					return 0, errors.New("livecluster: data frame in place of a push acknowledgement")
				case abandoned != nil:
					return savings, abandoned
				case ack.err != "":
					return savings, remoteError{ack.err}
				}
				return savings, nil
			})
		}(s)
	}
	wg.Wait()
	var total int64
	for s := 0; s < streams; s++ {
		if errs[s] != nil {
			return 0, fmt.Errorf("livecluster: push %d/%d to worker %d: %w", shuffleID, mapPart, dst, errs[s])
		}
		total += sent[s]
	}
	w.tel.op(reqPushChunk)
	w.cluster.counter("push_chunks_total", nil).Add(int64(len(chunks)))
	return total, nil
}

// fetch pulls one (map, reduce) shard from worker holder as a chunk stream and
// returns the decoded chunks as they are, in order, for the caller to
// gather at its final size, plus their record-codec bytes (what the
// holder's serve span reports). sc parents that serve span under the
// requesting fetch span.
func (w *worker) fetch(holder, shuffleID, mapPart, reduce int, sc spanCtx) ([][]rdd.Pair, int64, error) {
	var out [][]rdd.Pair
	var codecBytes int64
	err := w.links[holder].exchange("shuffle", func(pc *pooledConn) (int64, error) {
		out, codecBytes = nil, 0 // reset on transparent retry
		if err := pc.enc.Encode(&request{
			Kind: reqFetchStream, ShuffleID: shuffleID, MapPart: mapPart, Reduce: reduce,
			Trace: sc.trace, Parent: sc.parent, From: w.id,
		}); err != nil {
			return 0, err
		}
		var savings int64
		for {
			fr, err := readChunkFrame(pc.br, maxFramePayload)
			if err != nil {
				return 0, err
			}
			if fr.last {
				if fr.err != "" {
					return savings, remoteError{fr.err}
				}
				return savings, nil
			}
			savings += fr.savings()
			codecBytes += fr.codecBytes()
			records, err := fr.records()
			if err != nil {
				return 0, err
			}
			out = append(out, records)
		}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("livecluster: fetch %d/%d/%d from worker %d: %w", shuffleID, mapPart, reduce, holder, err)
	}
	w.tel.op(reqFetchStream)
	w.cluster.counter("fetch_chunks_total", nil).Add(int64(len(out)))
	return out, codecBytes, nil
}

// remoteError is a failure reported by the peer over a healthy exchange:
// the connection is fine, so it is pooled again and the error is never
// retried transparently.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return e.msg }

// localError is a failure on this side of an exchange that left the stream
// intact: a chunk that could not be encoded and so was never written. The
// sender ends the stream in order, the connection stays healthy and
// pooled, and the error is never retried transparently.
type localError struct{ err error }

func (e localError) Error() string { return e.err.Error() }
func (e localError) Unwrap() error { return e.err }

// counter resolves a run-scoped metrics counter; nil (a no-op counter)
// between jobs. Registry writes are thread-safe and do not affect the
// byte-conservation invariant, so workers update them directly.
func (c *Cluster) counter(name string, labels obs.Labels) *obs.Counter {
	if run := c.curRun.Load(); run != nil {
		return run.stats.Events.Registry().Counter(name, labels)
	}
	return nil
}
