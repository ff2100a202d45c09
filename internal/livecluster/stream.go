package livecluster

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"sync"

	"wanshuffle/internal/rdd"
)

// Chunk framing for the streaming data plane. A push or fetch moves its
// records as a sequence of bounded-size chunk frames over one (or, for
// pushes, several parallel) pooled connections, ended by a terminal frame.
// The frames themselves are gob, like every control message; the records
// inside them are not — each chunk carries them as one byte payload in the
// record codec of internal/rdd, optionally compressed. Chunks that would
// not shrink ship raw, so compression never inflates the wire.

// Compression codec names accepted by Config.Compression.
const (
	CodecNone  = ""
	CodecGzip  = "gzip"
	CodecFlate = "flate"
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

// chunk is one frame of a push or fetch stream. Payload holds the frame's
// records in the record codec (rdd.AppendPairs), compressed with Codec
// when that made them smaller. A frame with Last set terminates the
// stream and may carry an error: the holder's on a fetch stream, the
// sender's on a push stream it had to abandon.
type chunk struct {
	// Seq orders the chunk within its logical transfer, so parallel push
	// streams reassemble deterministically.
	Seq     int
	Payload []byte
	Codec   string
	// RawLen is the size of the codec bytes before compression, set on
	// compressed chunks only; it feeds the bytes_raw_total accounting.
	RawLen int64
	Last   bool
	Err    string
}

// savings returns how many payload bytes compression saved on this chunk
// (zero for raw chunks), the delta between raw and wire accounting.
func (ch *chunk) savings() int64 {
	if ch.Codec == CodecNone || ch.RawLen == 0 {
		return 0
	}
	if s := ch.RawLen - int64(len(ch.Payload)); s > 0 {
		return s
	}
	return 0
}

// encodeBufs recycles the buffers senders encode chunk payloads in. A
// buffer is taken per chunk and handed back as soon as the frame is on the
// connection, so a stream's encoding costs no allocation once warm.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// makeChunk builds one data frame for records, encoding them into *buf
// (reused from its start) and compressing with codec when that shrinks
// the encoding. The frame's Payload may alias *buf: it is valid until buf
// is reused. A value the codec cannot carry is an
// *rdd.UnsupportedValueError.
func makeChunk(seq int, records []rdd.Pair, codec string, buf *[]byte) (*chunk, error) {
	raw, err := rdd.AppendPairs((*buf)[:0], records)
	if err != nil {
		return nil, err
	}
	*buf = raw
	ch := &chunk{Seq: seq, Payload: raw}
	if codec == CodecNone {
		return ch, nil
	}
	comp, err := compress(codec, raw)
	if err != nil {
		return nil, err
	}
	// A chunk compression would inflate (tiny or incompressible data)
	// ships raw, so bytes_wire_total never exceeds raw.
	if len(comp) < len(raw) {
		ch.Payload, ch.Codec, ch.RawLen = comp, codec, int64(len(raw))
	}
	return ch, nil
}

// decode returns the chunk's records, decompressing as needed. The records
// are cut out of the payload, which the chunk gives up (rdd.DecodePairs).
func (ch *chunk) decode() ([]rdd.Pair, error) {
	raw := ch.Payload
	if ch.Codec != CodecNone {
		var err error
		if raw, err = decompress(ch.Codec, ch.Payload); err != nil {
			return nil, err
		}
	}
	records, err := rdd.DecodePairs(raw)
	if err != nil {
		return nil, fmt.Errorf("livecluster: decoding chunk %d: %w", ch.Seq, err)
	}
	return records, nil
}

func compress(codec string, raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	var w io.WriteCloser
	switch codec {
	case CodecGzip:
		w = gzip.NewWriter(&buf)
	case CodecFlate:
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("livecluster: flate writer: %w", err)
		}
		w = fw
	default:
		return nil, fmt.Errorf("livecluster: unknown codec %q", codec)
	}
	if _, err := w.Write(raw); err != nil {
		return nil, fmt.Errorf("livecluster: compressing chunk: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("livecluster: compressing chunk: %w", err)
	}
	return buf.Bytes(), nil
}

func decompress(codec string, payload []byte) ([]byte, error) {
	var r io.ReadCloser
	switch codec {
	case CodecGzip:
		gr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("livecluster: gzip chunk: %w", err)
		}
		r = gr
	case CodecFlate:
		r = flate.NewReader(bytes.NewReader(payload))
	default:
		return nil, fmt.Errorf("livecluster: unknown codec %q", codec)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		_ = r.Close()
		return nil, fmt.Errorf("livecluster: decompressing chunk: %w", err)
	}
	return raw, r.Close()
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
