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
	"slices"
	"sync"

	"wanshuffle/internal/rdd"
)

// Framing for the streaming data plane: everything a socket carries is a
// frame of one format. A push or fetch opens with one request frame
// (worker.go) and moves its records as one ordered stream of bounded-size
// chunk frames over one pooled connection, ended by a terminal frame. A frame
// is raw bytes:
//
//	flags byte | uvarint seq | uvarint rawLen | uvarint len | len payload bytes
//
// A data frame's payload is its records in the record codec of
// internal/rdd, compressed with the codec the flags name when that made
// them smaller (rawLen is then the codec bytes before compression, and 0
// otherwise), so compression never inflates the wire. seq counts a stream's
// data frames from 0; one out of turn is a protocol error. A frame with
// frameLast set terminates the stream; with frameErr too its payload is an
// error message: the holder's on a fetch stream, the sender's on a push
// stream it had to abandon. A terminal frame is also the only reply there
// is: the receiver acknowledges a push stream with one, carrying the error
// that made it drop the push if any. A frame whose flags are frameReq alone
// carries a request and belongs at the head of an exchange only: anywhere
// inside a stream it is a framing error. Push and fetch share the one stream
// writer and the one stream reader below (writeStream, readStream).

// Compression codec names accepted by Config.Compression.
const (
	CodecNone  = ""
	CodecGzip  = "gzip"
	CodecFlate = "flate"
)

// frameCodecs maps the codec bits of a frame's flags to the codec name.
var frameCodecs = [...]string{CodecNone, CodecGzip, CodecFlate}

const (
	frameLast       = 1 << 0
	frameErr        = 1 << 1
	frameCodecShift = 2 // two bits: an index into frameCodecs
	frameReq        = 1 << 4

	// frameHeaderMax is the room a frame's header can take ahead of its
	// payload: senders build the payload behind that much space, so header
	// and payload leave in one Write.
	frameHeaderMax = 1 + 3*binary.MaxVarintLen64

	// maxFramePayload caps len and rawLen. The reader checks both before it
	// allocates, so a damaged or hostile header cannot make it reserve more;
	// a sender refuses to write a chunk the receiver would reject. Chunks
	// are Config.ChunkRecords records, far below this at any sane setting.
	maxFramePayload = 64 << 20
)

// validCodec reports whether name is a supported compression codec,
// normalizing the "none" spelling to the empty codec.
func validCodec(name string) (string, bool) {
	switch name {
	case CodecNone, "none":
		return CodecNone, true
	case CodecGzip, CodecFlate:
		return name, true
	default:
		return "", false
	}
}

// chunkFrame is one received frame: of a push or fetch stream, or (req) the
// request that opens one.
type chunkFrame struct {
	// seq is the data frame's place in its stream, counted from 0.
	seq     int
	last    bool
	req     bool
	err     string // terminal frames only
	codec   string
	rawLen  int
	payload []byte
}

// codecBytes is the size of the frame's records in the record codec,
// whatever crossed the wire: what bytes_raw_total and spans account.
func (fr *chunkFrame) codecBytes() int64 {
	if fr.codec != CodecNone {
		return int64(fr.rawLen)
	}
	return int64(len(fr.payload))
}

// savings returns how many payload bytes compression saved on this chunk
// (zero for raw chunks, positive for compressed ones: the reader rejects a
// compressed frame that is not smaller), the delta between raw and wire
// accounting.
func (fr *chunkFrame) savings() int64 { return fr.codecBytes() - int64(len(fr.payload)) }

// writeFrame sends one frame in a single Write. room is frameHeaderMax
// bytes of scratch followed by the payload; the header is laid down right
// before the payload.
func writeFrame(w io.Writer, room []byte, flags byte, seq, rawLen int) error {
	var hdr [frameHeaderMax]byte
	hdr[0] = flags
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(seq))
	n += binary.PutUvarint(hdr[n:], uint64(rawLen))
	n += binary.PutUvarint(hdr[n:], uint64(len(room)-frameHeaderMax))
	frame := room[frameHeaderMax-n:]
	copy(frame, hdr[:n])
	_, err := w.Write(frame)
	return err
}

// writeLastFrame ends a stream, with the error that cut it short if any.
func writeLastFrame(w io.Writer, cause error) error {
	flags, room := byte(frameLast), make([]byte, frameHeaderMax)
	if cause != nil {
		flags, room = flags|frameErr, append(room, cause.Error()...)
	}
	return writeFrame(w, room, flags, 0, 0)
}

// readChunkFrame reads one frame, its payload with a single io.ReadFull
// into a buffer of its own (which chunkFrame.records then gives to the
// record decoder). A header that is malformed or asks for more than
// maxPayload bytes is an error before anything is allocated; so is a
// stream that ends anywhere inside a frame.
func readChunkFrame(r *bufio.Reader, maxPayload int) (chunkFrame, error) {
	var fr chunkFrame
	fail := func(err error) (chunkFrame, error) {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return chunkFrame{}, fmt.Errorf("livecluster: reading chunk frame: %w", err)
	}
	flags, err := r.ReadByte()
	if err != nil {
		return fail(err)
	}
	fr.req = flags == frameReq // no other bit goes with frameReq
	codec := int(flags >> frameCodecShift)
	if fr.req {
		codec = 0
	} else if codec >= len(frameCodecs) || (flags&frameErr != 0 && flags&frameLast == 0) {
		return fail(fmt.Errorf("bad flags %#x", flags))
	}
	var hdr [3]uint64 // seq, rawLen, len
	for i := range hdr {
		if hdr[i], err = binary.ReadUvarint(r); err != nil {
			return fail(err)
		}
		if hdr[i] > uint64(maxPayload) {
			return fail(fmt.Errorf("header field %d is %d, above the %d-byte frame cap", i, hdr[i], maxPayload))
		}
	}
	if codec != 0 && hdr[1] <= hdr[2] {
		return fail(fmt.Errorf("compressed payload of %d bytes for %d raw ones", hdr[2], hdr[1]))
	}
	fr.seq, fr.rawLen = int(hdr[0]), int(hdr[1])
	fr.last, fr.codec = flags&frameLast != 0, frameCodecs[codec]
	fr.payload = make([]byte, hdr[2])
	if _, err := io.ReadFull(r, fr.payload); err != nil {
		return fail(err)
	}
	if flags&frameErr != 0 {
		fr.err, fr.payload = string(fr.payload), nil
	}
	return fr, nil
}

// encodeBuf is the scratch one chunk is encoded in: frameHeaderMax bytes
// of header room, then the codec bytes (raw) or their compressed form.
type encodeBuf struct{ raw, comp []byte }

// encodeBufs recycles them. A buffer is taken per chunk and handed back as
// soon as the frame is on the connection, so a stream's encoding costs no
// allocation once warm.
var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

// sendChunk encodes one chunk of records into a pooled buffer, compresses
// it with codec when that shrinks it, writes the data frame and hands the
// buffer back, returning the chunk's record-codec bytes (the receiver's
// chunkFrame.codecBytes) and how many of them compression saved. A chunk
// that cannot be sent — a value the codec cannot carry, which stays an
// *rdd.UnsupportedValueError, or an encoding above the frame cap — is a
// localError: nothing of it was written.
func sendChunk(w io.Writer, seq int, records []rdd.Pair, codec string) (raw, saved int64, err error) {
	buf := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(buf)
	room, err := rdd.AppendPairs(slices.Grow(buf.raw[:0], frameHeaderMax)[:frameHeaderMax], records)
	if err != nil {
		return 0, 0, localError{err}
	}
	buf.raw = room
	rawLen := len(room) - frameHeaderMax
	if rawLen > maxFramePayload {
		return 0, 0, localError{fmt.Errorf("livecluster: chunk %d encodes to %d bytes, above the %d-byte frame cap", seq, rawLen, maxFramePayload)}
	}
	if codec != CodecNone {
		comp, err := compress(codec, slices.Grow(buf.comp[:0], frameHeaderMax)[:frameHeaderMax], room[frameHeaderMax:])
		if err != nil {
			return 0, 0, localError{err}
		}
		buf.comp = comp
		// A chunk compression would inflate (tiny or incompressible data)
		// ships raw, so bytes_wire_total never exceeds raw.
		if len(comp) < len(room) {
			flags := byte(slices.Index(frameCodecs[:], codec) << frameCodecShift)
			return int64(rawLen), int64(len(room) - len(comp)), writeFrame(w, comp, flags, seq, rawLen)
		}
	}
	return int64(rawLen), 0, writeFrame(w, room, 0, seq, 0)
}

// records returns the frame's records, decompressing as needed. They are
// cut out of the payload, which the frame gives up (rdd.DecodePairs).
func (fr *chunkFrame) records() ([]rdd.Pair, error) {
	raw := fr.payload
	if fr.codec != CodecNone {
		var err error
		if raw, err = decompress(fr.codec, fr.payload, fr.rawLen); err != nil {
			return nil, err
		}
	}
	records, err := rdd.DecodePairs(raw)
	if err != nil {
		return nil, fmt.Errorf("livecluster: decoding chunk %d: %w", fr.seq, err)
	}
	return records, nil
}

// streamTotals is what one chunk stream carried: its data frames, their
// records' size in the record codec (what spans and bytes_raw_total account)
// and how much of that compression kept off the wire.
type streamTotals struct {
	chunks     int
	raw, saved int64
}

// writeStream sends records as one chunk stream: data frames of at most
// chunkRecords records each, then the terminal frame. In between — the last
// chunk out, the peer not yet told so — it hands sent what the stream
// carried, for whatever must be on record before the peer can act on the
// stream's end. A chunk that cannot be encoded was never written: the stream
// ends in order with that cause in its terminal frame and the localError is
// returned, the connection still in step. Any other error is a failed write.
func writeStream(w io.Writer, records []rdd.Pair, chunkRecords int, codec string, sent func(streamTotals)) error {
	var st streamTotals
	for seq, part := range splitRecords(records, chunkRecords) {
		raw, saved, err := sendChunk(w, seq, part, codec)
		if err != nil {
			if intact(err) {
				if werr := writeLastFrame(w, err); werr != nil {
					return werr
				}
			}
			return err
		}
		st.chunks++
		st.raw += raw
		st.saved += saved
	}
	sent(st)
	return writeLastFrame(w, nil)
}

// readStream reads one chunk stream: data frames until the terminal one, each
// frame's records handed to fn in stream order. A frame that cannot be read,
// or is a request, is returned at once: the connection is out of step. Any
// other failure leaves the stream intact, so the reader first drains it to
// its terminal frame, without calling fn again: a frame out of sequence, a
// payload that does not decode or an error from fn then comes back as a
// localError, and failing those the peer's terminal-frame error as a
// remoteError.
func readStream(br *bufio.Reader, fn func([]rdd.Pair) error) (streamTotals, error) {
	var st streamTotals
	var failed error
	for {
		fr, err := readChunkFrame(br, maxFramePayload)
		if err != nil {
			return st, err
		}
		if fr.req {
			return st, errors.New("livecluster: request frame inside a chunk stream")
		}
		if fr.last {
			if failed == nil && fr.err != "" {
				failed = remoteError{fr.err}
			}
			return st, failed
		}
		if failed != nil {
			continue
		}
		if fr.seq != st.chunks {
			failed = localError{fmt.Errorf("livecluster: chunk %d where chunk %d of the stream was due", fr.seq, st.chunks)}
			continue
		}
		records, err := fr.records()
		if err == nil {
			err = fn(records)
		}
		if err != nil {
			failed = localError{err}
			continue
		}
		st.chunks++
		st.raw += fr.codecBytes()
		st.saved += fr.savings()
	}
}

// The chunk compressors, one pool per codec, and the flate decompressor are
// reset per chunk rather than built: a new flate writer allocates about
// 0.8 MB of tables. Reset leaves a writer as its constructor made it, so
// frames are byte-identical.
var (
	compressors = map[string]*sync.Pool{
		CodecGzip: {New: func() any { return gzip.NewWriter(nil) }},
		CodecFlate: {New: func() any {
			w, _ := flate.NewWriter(nil, flate.DefaultCompression) // errors only on a bad level
			return w
		}},
	}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// compress appends raw, compressed with codec, to dst.
func compress(codec string, dst, raw []byte) ([]byte, error) {
	pool := compressors[codec]
	if pool == nil {
		return nil, fmt.Errorf("livecluster: unknown codec %q", codec)
	}
	w := pool.Get().(interface {
		io.WriteCloser
		Reset(io.Writer)
	})
	defer pool.Put(w)
	buf := bytes.NewBuffer(dst)
	w.Reset(buf)
	if _, err := w.Write(raw); err != nil {
		return nil, fmt.Errorf("livecluster: compressing chunk: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("livecluster: compressing chunk: %w", err)
	}
	return buf.Bytes(), nil
}

// decompress inflates payload, which must hold exactly rawLen bytes: the
// sender said so in the frame header, so the output is allocated once.
func decompress(codec string, payload []byte, rawLen int) ([]byte, error) {
	var r io.ReadCloser
	switch codec {
	case CodecGzip:
		gr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("livecluster: gzip chunk: %w", err)
		}
		r = gr
	case CodecFlate:
		r = flateReaders.Get().(io.ReadCloser)
		defer flateReaders.Put(r)
		_ = r.(flate.Resetter).Reset(bytes.NewReader(payload), nil) // never fails
	default:
		return nil, fmt.Errorf("livecluster: unknown codec %q", codec)
	}
	defer r.Close()
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("livecluster: decompressing chunk: %w", err)
	}
	// The next read must be the stream's clean end (which is also where
	// gzip verifies its checksum).
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, fmt.Errorf("livecluster: decompressing chunk: not the %d bytes its frame declared (%v)", rawLen, err)
	}
	return raw, nil
}

// splitRecords cuts records into consecutive chunks of at most size
// records each; an empty input yields no chunks.
func splitRecords(records []rdd.Pair, size int) [][]rdd.Pair {
	if size <= 0 {
		size = 1
	}
	var out [][]rdd.Pair
	for start := 0; start < len(records); start += size {
		end := start + size
		if end > len(records) {
			end = len(records)
		}
		out = append(out, records[start:end])
	}
	return out
}
