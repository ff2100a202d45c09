package livecluster

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/dag"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// pairs builds n distinct records with moderately compressible values.
func pairs(n int) []rdd.Pair {
	out := make([]rdd.Pair, n)
	for i := range out {
		out[i] = rdd.KV(fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%d-abcabcabcabc", i%5))
	}
	return out
}

// fetchFlat fetches one shard and joins the chunks it arrived in.
func fetchFlat(w *worker, holder, shuffleID, mapPart, reduce int) ([]rdd.Pair, error) {
	chunks, _, err := w.fetch(holder, shuffleID, mapPart, reduce, spanCtx{})
	return slices.Concat(chunks...), err
}

func frameReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

func TestChunkFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec string
		n     int
	}{
		{"none-empty", codecNone, 0},
		{"none-some", codecNone, 10},
		{"gzip-empty", codecGzip, 0},
		{"gzip-one", codecGzip, 1},
		{"gzip-many", codecGzip, 500},
		{"flate-one", codecFlate, 1},
		{"flate-many", codecFlate, 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := pairs(tc.n)
			var wire bytes.Buffer
			raw, saved, err := sendChunk(&wire, 3, in, tc.codec)
			if err != nil {
				t.Fatal(err)
			}
			// A data frame, a clean terminal frame and an error one, back to
			// back on one stream: each read takes exactly its own bytes.
			if err := writeLastFrame(&wire, nil); err != nil {
				t.Fatal(err)
			}
			if err := writeLastFrame(&wire, errors.New("holder lost the shard")); err != nil {
				t.Fatal(err)
			}
			sent := wire.Len()
			br := frameReader(wire.Bytes())
			fr, err := readChunkFrame(br, maxFramePayload)
			if err != nil {
				t.Fatal(err)
			}
			if fr.seq != 3 || fr.last || fr.err != "" {
				t.Fatalf("data frame read back as %+v", fr)
			}
			size, _ := rdd.EncodedSize(in)
			codecBytes := int64(size)
			if fr.codecBytes() != codecBytes || raw != codecBytes || fr.savings() != saved || saved != codecBytes-int64(len(fr.payload)) {
				t.Fatalf("codec bytes %d (want %d), savings %d, sender's %d, payload %d",
					fr.codecBytes(), codecBytes, fr.savings(), saved, len(fr.payload))
			}
			if tc.codec != codecNone && tc.n >= 500 && (saved <= 0 || fr.codec != tc.codec) {
				t.Fatal("large repetitive chunk did not compress")
			}
			if int64(len(fr.payload)) > codecBytes || (tc.codec == codecGzip && tc.n <= 1 && fr.codec != codecNone) {
				t.Fatal("chunk shipped compressed despite inflating")
			}
			// Headers: at most 7 bytes on a data frame, 4 on a terminal one.
			if over := sent - len(fr.payload) - len("holder lost the shard"); over > 7+4+4 {
				t.Fatalf("three frames cost %d header bytes", over)
			}
			out, err := fr.records()
			if err != nil {
				t.Fatal(err)
			}
			if canon(out) != canon(in) {
				t.Fatal("chunk round-trip diverges")
			}
			if fr, err = readChunkFrame(br, maxFramePayload); err != nil || !fr.last || fr.err != "" {
				t.Fatalf("terminal frame read back as %+v, %v", fr, err)
			}
			if fr, err = readChunkFrame(br, maxFramePayload); err != nil || !fr.last || fr.err != "holder lost the shard" {
				t.Fatalf("error frame read back as %+v, %v", fr, err)
			}
			if _, err = readChunkFrame(br, maxFramePayload); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("read past the last frame: %v", err)
			}
		})
	}
}

// A pooled, reset compressor writes the bytes a new one would, whatever it
// compressed before, and the pooled decompressor reads each of them back.
func TestPooledCompressorsMatchNewOnes(t *testing.T) {
	fresh := map[string]func(io.Writer) io.WriteCloser{
		codecGzip: func(w io.Writer) io.WriteCloser { return gzip.NewWriter(w) },
		codecFlate: func(w io.Writer) io.WriteCloser {
			fw, _ := flate.NewWriter(w, flate.DefaultCompression)
			return fw
		},
	}
	for codec, newWriter := range fresh {
		for _, n := range []int{500, 1, 0, 500, 37} {
			raw, _ := rdd.AppendPairs(nil, pairs(n))
			var want bytes.Buffer
			w := newWriter(&want)
			if _, err := w.Write(raw); err != nil || w.Close() != nil {
				t.Fatal(err)
			}
			got, err := compress(codec, []byte("hdr"), raw)
			if err != nil || !bytes.Equal(got[3:], want.Bytes()) || string(got[:3]) != "hdr" {
				t.Fatalf("%s, %d records: pooled compressor wrote %d bytes, a new one %d (%v)", codec, n, len(got)-3, want.Len(), err)
			}
			back, err := decompress(codec, got[3:], len(raw))
			if err != nil || !bytes.Equal(back, raw) {
				t.Fatalf("%s, %d records: round trip: %v", codec, n, err)
			}
		}
	}
}

// Every proper prefix of a valid frame is an error, never a short frame.
func TestChunkFrameTruncated(t *testing.T) {
	for _, codec := range []string{codecNone, codecFlate} {
		var wire bytes.Buffer
		if _, _, err := sendChunk(&wire, 300, pairs(200), codec); err != nil {
			t.Fatal(err)
		}
		frame := wire.Bytes()
		for cut := 0; cut < len(frame); cut++ {
			if _, err := readChunkFrame(frameReader(frame[:cut]), maxFramePayload); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("codec %q: frame cut to %d of %d bytes: err = %v", codec, cut, len(frame), err)
			}
		}
	}
}

// A header is judged before its payload is allocated: a length or rawLen
// above the cap, or flags no sender sets, are errors that cost nothing.
func TestChunkFrameRejectsBadHeaderBeforeAllocating(t *testing.T) {
	const limit = 1 << 10
	header := func(flags byte, seq, rawLen, n uint64) []byte {
		b := []byte{flags}
		b = binary.AppendUvarint(b, seq)
		b = binary.AppendUvarint(b, rawLen)
		return binary.AppendUvarint(b, n)
	}
	for name, frame := range map[string][]byte{
		"len above cap":    header(0, 0, 0, limit+1),
		"len huge":         header(0, 0, 0, 1<<62),
		"rawLen above cap": header(2<<frameCodecShift, 0, 1<<40, 4),
		"unknown codec":    header(3<<frameCodecShift, 0, 0, 0),
		"unknown flag bit": header(1<<5, 0, 0, 0),
		"error not last":   header(frameErr, 0, 0, 0),
		"overlong uvarint": append([]byte{0}, bytes.Repeat([]byte{0xff}, 11)...),
	} {
		br := frameReader(append(frame, make([]byte, 64)...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readChunkFrame(br, limit)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d bytes allocated on the way to rejecting it", name, got)
		}
	}
	ok := append(header(0, 0, 0, limit), make([]byte, limit)...)
	if fr, err := readChunkFrame(frameReader(ok), limit); err != nil || len(fr.payload) != limit {
		t.Fatalf("a frame exactly at the cap: %v", err)
	}
}

// A sender refuses a chunk whose encoding the receiver's cap would reject,
// as a localError with nothing written.
func TestSendChunkRefusesOversizedChunk(t *testing.T) {
	big := []rdd.Pair{rdd.KV("k", make([]byte, maxFramePayload+1))}
	var wire bytes.Buffer
	_, _, err := sendChunk(&wire, 0, big, codecNone)
	var local localError
	if !errors.As(err, &local) || wire.Len() != 0 {
		t.Fatalf("oversized chunk: err = %v, %d bytes written", err, wire.Len())
	}
}

// A compressed frame must inflate to exactly the rawLen its header states.
func TestChunkFrameRawLenMustMatch(t *testing.T) {
	var wire bytes.Buffer
	if _, _, err := sendChunk(&wire, 0, pairs(300), codecFlate); err != nil {
		t.Fatal(err)
	}
	fr, err := readChunkFrame(frameReader(wire.Bytes()), maxFramePayload)
	if err != nil || fr.codec != codecFlate {
		t.Fatalf("setup: %+v, %v", fr.codec, err)
	}
	for _, delta := range []int{-1, +1} {
		lying := fr
		lying.rawLen += delta
		if _, err := lying.records(); err == nil {
			t.Fatalf("rawLen off by %+d accepted", delta)
		}
	}
}

// requestFrame is req as writeRequest puts it on the wire.
func requestFrame(t testing.TB, req request) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := writeRequest(&wire, &req); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestRequestFrameRoundTrip pins the header that opens every exchange: both
// kinds read back as written at the far ends of what their fields hold, and
// everything else a peer could send in a request's place is an error, the
// oversized one before its length is allocated.
func TestRequestFrameRoundTrip(t *testing.T) {
	// A span ID as high as one goes, and the small ones a recorder hands out.
	push := request{Kind: reqPushChunk, ShuffleID: 7, MapPart: 1 << 20, Attempt: 3, From: 5,
		Parent: 41, Span: math.MaxInt64}
	fetch := request{Kind: reqFetchStream, ShuffleID: 1, MapPart: 2, Reduce: 3, From: 4, Parent: 2}
	for _, want := range []request{push, fetch, {}} {
		frame := requestFrame(t, want)
		if got, err := readRequest(frameReader(frame)); err != nil || got != want {
			t.Fatalf("request read back as %+v, %v; want %+v", got, err, want)
		}
		// Every proper prefix is an error: a cut frame, never a short request.
		for cut := 0; cut < len(frame); cut++ {
			if _, err := readRequest(frameReader(frame[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("request frame cut to %d of %d bytes: err = %v", cut, len(frame), err)
			}
		}
	}

	// A whole frame around a payload that is not a request's.
	framed := func(flags byte, payload []byte) []byte {
		var wire bytes.Buffer
		if err := writeFrame(&wire, append(make([]byte, frameHeaderMax), payload...), flags, 0, 0); err != nil {
			t.Fatal(err)
		}
		return wire.Bytes()
	}
	payload := requestFrame(t, fetch)[4:] // behind flags, seq, rawLen and a one-byte len
	pushPayload := requestFrame(t, push)[4:]
	overlong := append([]byte{byte(reqFetchStream)}, bytes.Repeat([]byte{0xff}, 11)...)
	for name, frame := range map[string][]byte{
		"no kind byte":          framed(frameReq, nil),
		"header cut short":      framed(frameReq, payload[:5]),
		"last field cut short":  framed(frameReq, payload[:len(payload)-1]),
		"bytes after fetch":     framed(frameReq, append(slices.Clone(payload), 0)),
		"bytes after push":      framed(frameReq, append(slices.Clone(pushPayload), 1, 2, 3)),
		"overlong uvarint":      framed(frameReq, overlong),
		"field above MaxInt64":  framed(frameReq, append([]byte{byte(reqFetchStream)}, binary.AppendUvarint(nil, 1<<63)...)),
		"data frame":            framed(0, payload),
		"terminal frame":        framed(frameLast, nil),
		"request and last":      framed(frameReq|frameLast, payload),
		"payload above the cap": framed(frameReq, make([]byte, maxRequestPayload+1)),
		"payload far above cap": append([]byte{frameReq, 0, 0}, binary.AppendUvarint(nil, 1<<40)...),
		"rawLen above the cap":  append([]byte{frameReq, 0}, binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 4)...),
	} {
		br := frameReader(append(frame, make([]byte, 64)...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readRequest(br)
		runtime.ReadMemStats(&after)
		if err == nil || intact(err) {
			t.Errorf("%s: err = %v, want one that drops the connection", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Errorf("%s: %d bytes allocated on the way to rejecting it", name, got)
		}
	}

	// A request frame belongs at the head of an exchange: inside a stream it
	// is a framing error, not a frame to skip.
	var stream bytes.Buffer
	if _, _, err := sendChunk(&stream, 0, pairs(3), codecNone); err != nil {
		t.Fatal(err)
	}
	stream.Write(requestFrame(t, fetch))
	_ = writeLastFrame(&stream, nil)
	chunks := 0
	if _, err := readStream(frameReader(stream.Bytes()), func([]rdd.Pair) error { chunks++; return nil }); err == nil || intact(err) || chunks != 1 {
		t.Fatalf("request frame inside a stream: err = %v after %d chunks, want a framing error after 1", err, chunks)
	}

	// An unknown kind is a whole request the server cannot serve: it answers
	// with an error terminal frame and both ends keep the connection.
	c := streamCluster(t, Config{Workers: 2, TasksPerWorker: 1}, 1) // one slot: the link is one connection wide
	l := c.workers[0].links[1]
	for i := 0; i < 2; i++ {
		pc, _, err := l.get()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeRequest(pc.conn, &request{Kind: 9}); err != nil {
			t.Fatal(err)
		}
		ack, err := readChunkFrame(pc.br, maxFramePayload)
		if err != nil || !ack.last || ack.err != "unknown request kind 9" {
			t.Fatalf("unknown kind answered with %+v, %v", ack, err)
		}
		l.put(pc)
	}
	if _, err := c.workers[0].push(1, 7, 0, 1, pairs(5), spanCtx{}); err != nil {
		t.Fatal(err)
	}
	if stats := flushed(c); stats.Dials != 1 || stats.PushConnections != 1 {
		t.Fatalf("%d dials for two refused requests and %d push: the connection was not kept", stats.Dials, stats.PushConnections)
	}
}

// FuzzReadChunkFrame feeds the frame reader arbitrary bytes: it returns a
// frame or an error, never panics, and never takes more than the cap for
// the payload (plus, when the frame decodes, what its records need). The
// request reader gets the same bytes, under the same terms.
func FuzzReadChunkFrame(f *testing.F) {
	const limit = 1 << 16
	for _, codec := range []string{codecNone, codecGzip, codecFlate} {
		var wire bytes.Buffer
		if _, _, err := sendChunk(&wire, 5, pairs(40), codec); err != nil {
			f.Fatal(err)
		}
		f.Add(wire.Bytes())
	}
	var last bytes.Buffer
	_ = writeLastFrame(&last, nil)
	_ = writeLastFrame(&last, errors.New("boom"))
	f.Add(last.Bytes())
	// What a push stream's receiver answers when it dropped the push.
	var ack bytes.Buffer
	_ = writeLastFrame(&ack, errors.New("worker 1: unknown shuffle 99"))
	f.Add(ack.Bytes())
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// What opens an exchange: a push's request with its first chunk behind
	// it, a fetch's, and one whose highest span ID is cut short.
	req := requestFrame(f, request{Kind: reqPushChunk, ShuffleID: 7, MapPart: 3, Attempt: 2, From: 1,
		Parent: 9, Span: math.MaxInt64})
	var chunk bytes.Buffer
	_, _, _ = sendChunk(&chunk, 0, pairs(4), codecNone)
	f.Add(append(slices.Clone(req), chunk.Bytes()...))
	f.Add(requestFrame(f, request{Kind: reqFetchStream, ShuffleID: 7, MapPart: 3, Reduce: 2, Parent: 12}))
	f.Add(req[:len(req)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes where an exchange opens: a request that takes its
		// frame's whole payload, so one byte more is an error, or an error.
		if _, err := readRequest(frameReader(data)); err == nil {
			fr, err := readChunkFrame(frameReader(data), maxRequestPayload)
			if err != nil {
				t.Fatalf("request read from a frame that does not read: %v", err)
			}
			var longer bytes.Buffer
			room := append(append(make([]byte, frameHeaderMax), fr.payload...), 0)
			if err := writeFrame(&longer, room, frameReq, 0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := readRequest(frameReader(longer.Bytes())); err == nil {
				t.Fatal("a request with a byte after its last field read back")
			}
		}
		br := frameReader(data)
		for {
			fr, err := readChunkFrame(br, limit)
			if err != nil {
				return
			}
			if len(fr.payload) > limit || fr.rawLen > limit || len(fr.err) > limit {
				t.Fatalf("frame above the cap: payload %d, rawLen %d", len(fr.payload), fr.rawLen)
			}
			if fr.err != "" && !fr.last {
				t.Fatal("error on a data frame")
			}
			if !fr.last {
				// Each record takes at least two codec bytes, so decoding
				// cannot amplify what the frame carried.
				if recs, err := fr.records(); err == nil && int64(len(recs)) > fr.codecBytes() {
					t.Fatalf("%d records out of %d codec bytes", len(recs), fr.codecBytes())
				}
			}
		}
	})
}

func TestSplitRecords(t *testing.T) {
	for _, tc := range []struct {
		n, size, chunks int
	}{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {8, 4, 2}, {9, 4, 3}, {17, 4, 5}, {3, 0, 3},
	} {
		got := splitRecords(pairs(tc.n), tc.size)
		if len(got) != tc.chunks {
			t.Fatalf("split(%d, %d) = %d chunks, want %d", tc.n, tc.size, len(got), tc.chunks)
		}
		total := 0
		for _, c := range got {
			total += len(c)
		}
		if total != tc.n {
			t.Fatalf("split(%d, %d) lost records: %d", tc.n, tc.size, total)
		}
	}
}

func TestValidCodec(t *testing.T) {
	for name, want := range map[string]string{"": "", "none": "", "gzip": "gzip", "flate": "flate"} {
		got, ok := validCodec(name)
		if !ok || got != want {
			t.Fatalf("validCodec(%q) = %q, %v", name, got, ok)
		}
	}
	if _, ok := validCodec("snappy"); ok {
		t.Fatal("unknown codec accepted")
	}
	if _, err := New(Config{Workers: 2, Compression: "zstd"}); err == nil {
		t.Fatal("cluster accepted unknown codec")
	}
}

// streamCluster builds a cluster for tests that drive exchanges outside a
// job, and stands in a run for them that knows a hash-partitioned shuffle 7
// and any extra shuffles: the shuffles its workers resolve and the record
// its exchanges account into (flushed).
func streamCluster(t *testing.T, cfg Config, reduces int, extra ...*rdd.ShuffleSpec) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p := &dag.Plan{}
	for i, spec := range append([]*rdd.ShuffleSpec{{ID: 7, Partitioner: rdd.NewHashPartitioner(reduces)}}, extra...) {
		p.Stages = append(p.Stages, &dag.Stage{ID: i, OutSpec: spec})
	}
	c.curRun.Store(newLiveRun(c, c.newStats(), p))
	return c
}

// shuffleOf returns what the run standing in knows of a shuffle.
func shuffleOf(c *Cluster, id int) *runShuffle { return c.curRun.Load().shuffles[id] }

// flushed returns what the cluster's exchanges have accounted since it was
// last called — into the stats of the run it stood in, as a job's exchanges
// account into the job's — and stands in a fresh record, on the same
// shuffles, for the exchanges that follow. With no run standing in (none
// yet, or a job has ended since), the exchanges in between accounted
// nothing, it returns empty stats and the run it stands in knows no shuffle.
func flushed(c *Cluster) *Stats {
	prev := c.curRun.Load()
	if prev == nil {
		c.curRun.Store(newLiveRun(c, c.newStats(), &dag.Plan{}))
		return c.newStats()
	}
	next := *prev
	next.stats = c.newStats()
	c.curRun.Store(&next)
	return prev.stats
}

// countingStore counts the deferred bucketing passes its store runs: the
// calls into the BucketFunc a shard read hands it that bucket an output.
type countingStore struct {
	blockstore.Store
	passes *atomic.Int64
}

func (s countingStore) Shard(key blockstore.Key, reduce int, bucket blockstore.BucketFunc) ([]rdd.Pair, error) {
	return s.Store.Shard(key, reduce, func(records []rdd.Pair) ([][]rdd.Pair, error) {
		shards, err := bucket(records)
		if err == nil {
			s.passes.Add(1)
		}
		return shards, err
	})
}

// countPasses wraps w's store in a countingStore and returns its count.
func countPasses(w *worker) *atomic.Int64 {
	passes := new(atomic.Int64)
	w.store = countingStore{w.store, passes}
	return passes
}

// TestChunkedPushFetchRoundTrip drives the full wire path — chunked push
// to a receiver, chunked fetch of every reduce shard back — across chunk
// boundaries and codecs, and checks byte conservation each time.
func TestChunkedPushFetchRoundTrip(t *testing.T) {
	const reduces = 3
	for _, tc := range []struct {
		name     string
		records  int
		chunkRec int
		codec    string
	}{
		{"empty-partition", 0, 4, codecNone},
		{"one-record", 1, 4, codecNone},
		{"exact-chunk-boundary", 8, 4, codecNone},
		{"many-chunks", 17, 4, codecNone},
		{"many-chunks-gzip", 17, 4, codecGzip},
		{"large-gzip", 400, 32, codecGzip},
		{"large-flate", 400, 32, codecFlate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := streamCluster(t, Config{
				Workers: 2, ChunkRecords: tc.chunkRec, Compression: tc.codec,
			}, reduces)
			in := pairs(tc.records)
			w0 := c.workers[0]
			if _, err := w0.push(1, 7, 0, 1, in, spanCtx{}); err != nil {
				t.Fatal(err)
			}
			var out []rdd.Pair
			for r := 0; r < reduces; r++ {
				shard, err := fetchFlat(w0, 1, 7, 0, r)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, shard...)
			}
			if canon(out) != canon(in) {
				t.Fatal("push/fetch round-trip diverges")
			}
			stats := flushed(c)
			if stats.PushConnections != 1 || stats.FetchConnections != int64(reduces) {
				t.Fatalf("ops = %d pushes / %d fetches", stats.PushConnections, stats.FetchConnections)
			}
			if got := matrixTotal(stats.trafficMatrix); got != stats.BytesOverTCP {
				t.Fatalf("matrix total %d != BytesOverTCP %d", got, stats.BytesOverTCP)
			}
			if stats.BytesRaw < stats.BytesOverTCP {
				t.Fatalf("BytesRaw %d < BytesOverTCP %d", stats.BytesRaw, stats.BytesOverTCP)
			}
			if tc.codec != codecNone && tc.records >= 400 && stats.BytesRaw <= stats.BytesOverTCP {
				t.Fatal("compressed transfer saved nothing")
			}
			if tc.codec == codecNone && stats.BytesRaw != stats.BytesOverTCP {
				t.Fatalf("uncompressed: BytesRaw %d != wire %d", stats.BytesRaw, stats.BytesOverTCP)
			}
		})
	}
}

// TestIncrementalBucketingAvoidsRebuilds asserts the core fix: hash-ready
// pushes are bucketed when they are installed, so fetches are pure lookups —
// no per-fetch (or even one-time) deferred bucketing pass.
func TestIncrementalBucketingAvoidsRebuilds(t *testing.T) {
	const reduces = 4
	c := streamCluster(t, Config{Workers: 2, ChunkRecords: 8}, reduces)
	w0 := c.workers[0]
	passes := countPasses(c.workers[1])
	if _, err := w0.push(1, 7, 0, 1, pairs(100), spanCtx{}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < reduces; r++ {
		for i := 0; i < 3; i++ { // repeated fetches of the same shard
			if _, err := fetchFlat(w0, 1, 7, 0, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := passes.Load(); n != 0 {
		t.Fatalf("receiver ran %d deferred bucket builds; bucketing at install should need none", n)
	}
}

// TestPushedOutputBucketedOnce pushes a hash-partitioned output in many
// chunks: the receiver buckets them once, at the terminal frame, so every
// installed shard is what bucketing the whole output gives, allocated at its
// exact size, and reading it runs no deferred bucketing pass.
func TestPushedOutputBucketedOnce(t *testing.T) {
	const reduces = 3
	c := streamCluster(t, Config{Workers: 2, ChunkRecords: 4}, reduces)
	passes := countPasses(c.workers[1])
	in := pairs(37)
	if _, err := c.workers[0].push(1, 7, 0, 1, in, spanCtx{}); err != nil {
		t.Fatal(err)
	}
	sh := shuffleOf(c, 7)
	want := rdd.BucketRecords(sh.spec, in)
	for r := 0; r < reduces; r++ {
		shard, err := c.workers[1].shardOf(sh, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(shard, want[r]) {
			t.Fatalf("installed shard %d differs from bucketing the whole output", r)
		}
		if cap(shard) != len(shard) {
			t.Errorf("installed shard %d: cap %d for %d records", r, cap(shard), len(shard))
		}
	}
	if n := passes.Load(); n != 0 {
		t.Fatalf("reading the pushed output ran %d deferred bucketing passes, want 0", n)
	}
}

// TestDeferredBucketingBucketsExactlyOnce covers the range-partitioned
// path: the partitioner is not ready at push time, so the output stays
// flat and is bucketed exactly once on the first fetch — never once per
// fetch, the bug this PR removes.
func TestDeferredBucketingBucketsExactlyOnce(t *testing.T) {
	const reduces = 3
	rp := rdd.NewRangePartitioner(reduces)
	c := streamCluster(t, Config{Workers: 2, ChunkRecords: 8}, reduces, &rdd.ShuffleSpec{ID: 9, Partitioner: rp})
	w0 := c.workers[0]
	passes := countPasses(c.workers[1])
	in := pairs(60)
	if _, err := w0.push(1, 9, 0, 1, in, spanCtx{}); err != nil {
		t.Fatal(err)
	}
	// Not ready yet: fetching must fail rather than bucket garbage.
	if _, err := fetchFlat(w0, 1, 9, 0, 0); err == nil {
		t.Fatal("fetch succeeded before the range partitioner was prepared")
	}
	rp.Prepare(rdd.SampleKeys(in, 1000))
	var out []rdd.Pair
	for r := 0; r < reduces; r++ {
		for i := 0; i < 3; i++ {
			shard, err := fetchFlat(w0, 1, 9, 0, r)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				out = append(out, shard...)
			}
		}
	}
	if canon(out) != canon(in) {
		t.Fatal("range-partitioned round-trip diverges")
	}
	if n := passes.Load(); n != 1 {
		t.Fatalf("flat output bucketed %d times, want exactly once", n)
	}
}

// handPush drives one push exchange frame by frame on a connection checked
// out of a link, for tests that need to stop, interleave or damage a stream.
type handPush struct {
	t  *testing.T
	l  *link
	pc *pooledConn
}

func startPush(t *testing.T, l *link, req request) *handPush {
	t.Helper()
	pc, _, err := l.get()
	if err != nil {
		t.Fatal(err)
	}
	req.Kind = reqPushChunk
	if err := writeRequest(pc.conn, &req); err != nil {
		t.Fatal(err)
	}
	return &handPush{t: t, l: l, pc: pc}
}

func (p *handPush) chunk(seq int, records []rdd.Pair) {
	p.t.Helper()
	if _, _, err := sendChunk(p.pc.conn, seq, records, codecNone); err != nil {
		p.t.Fatal(err)
	}
}

// finish ends the stream, hands the connection back to the link and returns
// the error the receiver acknowledged with ("" for none).
func (p *handPush) finish() string {
	p.t.Helper()
	if err := writeLastFrame(p.pc.conn, nil); err != nil {
		p.t.Fatal(err)
	}
	ack, err := readChunkFrame(p.pc.br, maxFramePayload)
	if err != nil || !ack.last {
		p.t.Fatalf("acknowledgement read back as %+v, %v", ack, err)
	}
	p.l.put(p.pc)
	return ack.err
}

// TestPushFailureIsATerminalFrame pins the push acknowledgement: when the
// receiver drops a push, the sender reads the reason out of a terminal
// chunk frame — the same reply a fetch ends with — the exchange leaves the
// connection pooled, and the job that follows dials nothing. Between jobs
// every shuffle is unknown, the finished job's too.
func TestPushFailureIsATerminalFrame(t *testing.T) {
	// One task per worker: a worker never needs a second connection to a
	// peer, so every dial is a connection lost.
	// The job aggregates at worker 1, so worker 0's link to it is warm.
	c, err := New(Config{Workers: 2, TasksPerWorker: 1, ChunkRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, job, err := c.Run(pushed(buildSkewedWordCount(4, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	w0 := c.workers[0]

	// While no job runs no shuffle is known, the finished job's included:
	// its shuffle's facts died with its run, so a push of it to worker 0,
	// which holds none of it, is refused and leaves that store empty.
	shuffle := job.Placements()[0].Shuffle
	_, err = c.workers[1].push(0, shuffle, 0, 9, pairs(9), spanCtx{})
	var remote remoteError
	if want := fmt.Sprintf("worker 0: unknown shuffle %d", shuffle); !errors.As(err, &remote) || !strings.Contains(err.Error(), want) {
		t.Fatalf("push between jobs: err = %v, want the receiver's %q", err, want)
	}
	if n := w0.storedOutputs(); n != 0 {
		t.Fatalf("worker 0 holds %d outputs after a push that arrived while no job ran", n)
	}
	flushed(c) // the exchanges below run outside a job, on a run that knows no shuffle

	// Shuffle 99 is not registered: the receiver refuses its chunks.
	_, err = w0.push(1, 99, 0, 1, pairs(9), spanCtx{})
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "worker 1: unknown shuffle 99") {
		t.Fatalf("push err = %v, want the receiver's refusal as a remoteError", err)
	}
	// So is an empty push for it: no chunk ever names the shuffle, and the
	// terminal frame still carries the refusal and installs nothing.
	before := c.workers[1].storedOutputs()
	_, err = w0.push(1, 99, 0, 1, nil, spanCtx{})
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "worker 1: unknown shuffle 99") {
		t.Fatalf("empty push err = %v, want the receiver's refusal as a remoteError", err)
	}
	if n := c.workers[1].storedOutputs(); n != before {
		t.Fatalf("receiver went from %d to %d outputs over an empty push it refused", before, n)
	}
	// The same exchange frame by frame: request, one chunk, the sender's
	// terminal frame, and then the receiver's.
	p := startPush(t, w0.links[1], request{ShuffleID: 99, Attempt: 2})
	p.chunk(0, pairs(3))
	if ack := p.finish(); ack != "worker 1: unknown shuffle 99" {
		t.Fatalf("refused push acknowledged with %q", ack)
	}
	// And one whose chunks skip a seq: the receiver reads the stream to its
	// end, installs nothing and says which chunk was due.
	p = startPush(t, w0.links[1], request{ShuffleID: 99, Attempt: 3})
	p.chunk(1, pairs(3))
	p.chunk(2, pairs(3))
	if ack := p.finish(); !strings.Contains(ack, "chunk 1 where chunk 0 of the stream was due") {
		t.Fatalf("push with a skipped seq acknowledged with %q, want the protocol error", ack)
	}
	if n := c.workers[1].storedOutputs(); n != before {
		t.Fatalf("receiver went from %d to %d outputs over a push it refused", before, n)
	}
	stats := flushed(c)
	if stats.Dials != 0 {
		t.Fatalf("the failed pushes dialed %d connections: the pool lost the warm one", stats.Dials)
	}
	_, next, err := c.Run(pushed(buildSkewedWordCount(4, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if next.Dials != 0 || next.PushConnections == 0 {
		t.Fatalf("job after the failed pushes: %d dials over %d pushes, want 0 dials", next.Dials, next.PushConnections)
	}
}

// attemptRecord is a one-record map output naming the attempt that made it.
func attemptRecord(att int) []rdd.Pair {
	return []rdd.Pair{rdd.KV("winner", fmt.Sprintf("attempt-%d", att))}
}

// fetchWinner fetches shuffle 7's single reduce shard of map 0 from worker 1
// and returns the attempt label its one record carries.
func fetchWinner(t *testing.T, c *Cluster) string {
	t.Helper()
	out, err := fetchFlat(c.workers[0], 1, 7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("fetched %d records, want 1", len(out))
	}
	return out[0].Value.(string)
}

// TestDuplicatePushesIdempotent pushes several attempts of the same
// (shuffle, map) partition and checks last-write-wins by attempt: a stale
// retried attempt never clobbers a newer one.
func TestDuplicatePushesIdempotent(t *testing.T) {
	c := streamCluster(t, Config{Workers: 2, ChunkRecords: 4}, 1)
	w0, w1 := c.workers[0], c.workers[1]
	for _, att := range []int{2, 1} { // attempt 1 arrives after attempt 2
		if _, err := w0.push(1, 7, 0, att, attemptRecord(att), spanCtx{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fetchWinner(t, c); got != "attempt-2" {
		t.Fatalf("stale attempt overwrote newer output: %q", got)
	}
	if _, err := w0.push(1, 7, 0, 3, attemptRecord(3), spanCtx{}); err != nil {
		t.Fatal(err)
	}
	if got := fetchWinner(t, c); got != "attempt-3" {
		t.Fatalf("newer attempt did not take over: %q", got)
	}
	if n := w1.storedOutputs(); n != 1 {
		t.Fatalf("duplicates stored as %d outputs, want 1", n)
	}
}

// TestZombieAttemptStreamsBesideLaterOne has an earlier attempt of a map
// task still streaming its push when a later attempt of the same (shuffle,
// map) starts its own: each stream's state is its handler's, so the two
// cannot mix, and whichever ends first the later attempt's output is the one
// installed.
func TestZombieAttemptStreamsBesideLaterOne(t *testing.T) {
	for _, zombieLast := range []bool{false, true} {
		t.Run(fmt.Sprintf("zombie ends last=%v", zombieLast), func(t *testing.T) {
			c := streamCluster(t, Config{Workers: 2, ChunkRecords: 4}, 1)
			l := c.workers[0].links[1]
			zombie := startPush(t, l, request{ShuffleID: 7, Attempt: 1})
			zombie.chunk(0, attemptRecord(1))
			later := startPush(t, l, request{ShuffleID: 7, Attempt: 2})
			later.chunk(0, attemptRecord(2))
			order := []*handPush{zombie, later}
			if zombieLast {
				order = []*handPush{later, zombie}
			}
			for _, p := range order {
				if ack := p.finish(); ack != "" {
					t.Fatalf("push acknowledged with %q", ack)
				}
			}
			if got := fetchWinner(t, c); got != "attempt-2" {
				t.Fatalf("installed output is %q, want the later attempt's", got)
			}
			if n := c.workers[1].storedOutputs(); n != 1 {
				t.Fatalf("two attempts stored as %d outputs, want 1", n)
			}
		})
	}
}

// TestCutPushStreamInstallsNothing closes a push's connection in the middle
// of its third chunk frame: the receiver's handler ends with the connection
// and installs nothing, and the push retried under the same attempt goes
// through.
func TestCutPushStreamInstallsNothing(t *testing.T) {
	// One task slot, so the cut connection is the only one the link dialed.
	c := streamCluster(t, Config{Workers: 2, TasksPerWorker: 1, ChunkRecords: 4}, 1)
	w0, w1 := c.workers[0], c.workers[1]
	in := pairs(12)
	p := startPush(t, w0.links[1], request{ShuffleID: 7, Attempt: 1})
	p.chunk(0, in[:4])
	p.chunk(1, in[4:8])
	var frame bytes.Buffer
	if _, _, err := sendChunk(&frame, 2, in[8:], codecNone); err != nil {
		t.Fatal(err)
	}
	if _, err := p.pc.conn.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	p.pc.close()
	// The handler is done once the server has dropped the connection.
	deadline := time.Now().Add(5 * time.Second)
	for open := 1; open > 0; {
		w1.srv.mu.Lock()
		open = len(w1.srv.conns)
		w1.srv.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("receiver still holds the cut connection")
		}
		time.Sleep(time.Millisecond)
	}
	if n := w1.storedOutputs(); n != 0 {
		t.Fatalf("receiver installed %d outputs from a cut stream", n)
	}
	if _, err := w0.push(1, 7, 0, 1, in, spanCtx{}); err != nil {
		t.Fatalf("retried push under the same attempt: %v", err)
	}
	out, err := fetchFlat(w0, 1, 7, 0, 0)
	if err != nil || canon(out) != canon(in) {
		t.Fatalf("retried push round-trip diverges (%v)", err)
	}
}

// TestStalePooledConnectionRetriedOnce kills every server-side connection
// while the client's side sits idle in its pool, then runs another
// exchange: the stale connection must be detected and the exchange retried
// transparently on a fresh dial instead of failing the task.
func TestStalePooledConnectionRetriedOnce(t *testing.T) {
	c := streamCluster(t, Config{Workers: 2, ChunkRecords: 4}, 1)
	w0, w1 := c.workers[0], c.workers[1]
	if _, err := w0.push(1, 7, 0, 1, pairs(6), spanCtx{}); err != nil {
		t.Fatal(err)
	}
	flushed(c) // the push's dial
	// Simulate the peer dropping idle connections (restart, LB timeout):
	// close every server-side conn under the server's own lock.
	w1.srv.mu.Lock()
	for conn := range w1.srv.conns {
		_ = conn.Close()
	}
	w1.srv.mu.Unlock()
	out, err := fetchFlat(w0, 1, 7, 0, 0)
	if err != nil {
		t.Fatalf("exchange on stale pooled connection not recovered: %v", err)
	}
	if len(out) != 6 {
		t.Fatalf("recovered fetch returned %d records, want 6", len(out))
	}
	if stats := flushed(c); stats.Dials != 1 || stats.FetchConnections != 1 {
		t.Fatalf("recovered fetch: %d dials for %d fetches, want one transparent retry on one fresh connection", stats.Dials, stats.FetchConnections)
	}
}

// gatedStore's Put waits for gate to close: a peer hung after reading a push.
type gatedStore struct {
	blockstore.Store
	gate <-chan struct{}
}

func (s gatedStore) Put(key blockstore.Key, out blockstore.Output) (stored, dup bool, err error) {
	<-s.gate
	return s.Store.Put(key, out)
}

// TestHungPeerDeadlineFiresAndRetries hangs the aggregator worker's store
// mid-job: the push must fail within the configured I/O deadline (not hang
// the run), charge the retry budget, and — once the peer recovers — the
// retried attempt must complete the job correctly.
func TestHungPeerDeadlineFiresAndRetries(t *testing.T) {
	want := canon(rdd.CollectLocal(buildSkewedWordCount(4, 2, 2)))
	cluster, err := New(Config{
		Workers:   3,
		IOTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	gate := make(chan struct{})
	cluster.workers[2].store = gatedStore{cluster.workers[2].store, gate}

	type result struct {
		out []rdd.Pair
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, _, err := cluster.Run(pushed(buildSkewedWordCount(4, 2, 2)))
		done <- result{out, err}
	}()

	// The deadline must fire and charge the retry budget while the peer
	// is still wedged.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if s := cluster.CurrentStats(); s != nil && s.Events.Counts().Retried > 0 {
			break
		}
		if time.Now().After(deadline) {
			close(gate) // Close waits for the handlers
			t.Fatal("no task retry observed; hung peer is blocking the run")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("job failed after peer recovered: %v", res.err)
		}
		if canon(res.out) != want {
			t.Fatal("post-recovery output diverges from reference")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job still hung after peer recovered")
	}
	if s := cluster.CurrentStats(); s == nil || s.Retries < 1 {
		t.Fatal("retry budget not charged for the timed-out attempt")
	}
}

// TestCompressedModeMatchesReference runs seeded random lineages through
// the streamed data plane with compression on, fetched and pushed, and
// requires outputs identical to the in-memory reference plus an exact
// byte-conservation invariant with BytesRaw >= wire bytes.
func TestCompressedModeMatchesReference(t *testing.T) {
	topo := topology.SixRegionEC2()
	for _, seed := range []int64{1, 7, 23} {
		want := canon(rdd.CollectLocal(rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())))
		for _, scheme := range schemes {
			cluster, err := New(Config{
				Workers: 4, Compression: codecGzip, ChunkRecords: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := cluster.Run(shuffledAs(scheme, rdd.RandomLineage(seed, rdd.NewGraph(), topo.Workers())))
			cluster.Close()
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, scheme, err)
			}
			if canon(out) != want {
				t.Fatalf("seed %d %v compressed run diverges from reference", seed, scheme)
			}
			if got := matrixTotal(stats.trafficMatrix); got != stats.BytesOverTCP {
				t.Fatalf("seed %d %v: matrix total %d != BytesOverTCP %d", seed, scheme, got, stats.BytesOverTCP)
			}
			if stats.BytesRaw < stats.BytesOverTCP {
				t.Fatalf("seed %d %v: BytesRaw %d < wire %d", seed, scheme, stats.BytesRaw, stats.BytesOverTCP)
			}
		}
	}
}

// BenchmarkChunkFrameRoundTrip moves one default-sized chunk (256 sort-like
// records) through the frame writer and reader and back into records.
func BenchmarkChunkFrameRoundTrip(b *testing.B) {
	recs := make([]rdd.Pair, 256)
	for i := range recs {
		recs[i] = rdd.KV(fmt.Sprintf("%010d", i*7919), fmt.Sprintf("%050d", i))
	}
	for _, codec := range []string{codecNone, codecFlate} {
		b.Run("codec="+codec, func(b *testing.B) {
			var wire bytes.Buffer
			br := bufio.NewReader(&wire)
			b.ReportAllocs()
			size, _ := rdd.EncodedSize(recs)
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				wire.Reset()
				if _, _, err := sendChunk(&wire, i, recs, codec); err != nil {
					b.Fatal(err)
				}
				fr, err := readChunkFrame(br, maxFramePayload)
				if err != nil {
					b.Fatal(err)
				}
				if out, err := fr.records(); err != nil || len(out) != len(recs) {
					b.Fatal(err)
				}
			}
		})
	}
}
