package livecluster

import (
	"bytes"
	"testing"
	"time"

	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/trace"
)

func matrixTotal(m [][]int64) int64 {
	var total int64
	for _, row := range m {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// TestLiveRunReportInvariants checks the live backend's run report: the
// canonical schema fields are filled, every task attempt produced at least
// one span, percentiles are ordered, and the traffic matrix accounts for
// every byte that crossed a socket.
func TestLiveRunReportInvariants(t *testing.T) {
	tr := &trace.SyncRecorder{}
	cluster, err := New(Config{Workers: 4, Mode: ModePush, Aggregators: []int{2}, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, stats, err := cluster.Run(buildWordCount(6, 3))
	if err != nil {
		t.Fatal(err)
	}

	rep := stats.RunReport("wordcount", tr)
	if rep.Schema != obs.SchemaVersion || rep.Backend != "live" || rep.Scheme != "push" {
		t.Fatalf("report header = %q/%q/%q", rep.Schema, rep.Backend, rep.Scheme)
	}
	if rep.Workload != "wordcount" || rep.CompletionSec <= 0 || len(rep.Stages) == 0 {
		t.Fatalf("degenerate report: workload=%q completion=%v stages=%d",
			rep.Workload, rep.CompletionSec, len(rep.Stages))
	}
	if len(rep.Sites) != 4 || len(rep.MatrixLabels) != 4 || rep.MatrixLabels[3] != "w3" {
		t.Fatalf("sites = %v, matrix labels = %v", rep.Sites, rep.MatrixLabels)
	}

	// Every byte over TCP is in exactly one matrix cell.
	if got, want := matrixTotal(stats.TrafficMatrix), stats.BytesOverTCP; got != want {
		t.Fatalf("traffic matrix total = %d, BytesOverTCP = %d", got, want)
	}
	var repTotal float64
	for _, row := range rep.TrafficMatrix {
		for _, v := range row {
			repTotal += v
		}
	}
	if repTotal != rep.BytesTotal || int64(repTotal) != stats.BytesOverTCP {
		t.Fatalf("report matrix total = %v, bytes_total = %v, BytesOverTCP = %d",
			repTotal, rep.BytesTotal, stats.BytesOverTCP)
	}
	var classTotal float64
	for _, v := range rep.TrafficByClass {
		classTotal += v
	}
	if classTotal != rep.BytesTotal {
		t.Fatalf("traffic_by_class total = %v, bytes_total = %v", classTotal, rep.BytesTotal)
	}

	// Every finished task attempt contributed exactly one compute span
	// (map or reduce) to the summaries.
	finished := stats.Events.Counts().Finished
	if finished == 0 {
		t.Fatal("no finished task events recorded")
	}
	compute := 0
	for _, ts := range rep.Tasks {
		if ts.Count < 1 {
			t.Fatalf("empty task summary: %+v", ts)
		}
		const eps = 1e-12
		if ts.P50Sec > ts.P95Sec+eps || ts.P95Sec > ts.MaxSec+eps {
			t.Fatalf("percentiles out of order: %+v", ts)
		}
		if ts.Kind == "map" || ts.Kind == "reduce" {
			compute += ts.Count
		}
	}
	if compute != finished {
		t.Fatalf("compute spans = %d, finished tasks = %d", compute, finished)
	}
	if rep.TaskAttempts != stats.Events.Counts().Started {
		t.Fatalf("task_attempts = %d, started events = %d",
			rep.TaskAttempts, stats.Events.Counts().Started)
	}

	// The report round-trips through its JSON encoding.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.BytesTotal != rep.BytesTotal || len(dec.Tasks) != len(rep.Tasks) {
		t.Fatalf("round-trip mangled report: bytes %v vs %v", dec.BytesTotal, rep.BytesTotal)
	}
}

// TestPushModeMatrixConcentratesOnAggregator is the matrix form of the
// paper's push-aggregation claim: with the aggregator pinned, cross-worker
// shuffle bytes land only in the aggregator's column — every other
// worker's column (and the driver's) stays zero.
func TestPushModeMatrixConcentratesOnAggregator(t *testing.T) {
	const agg = 2
	cluster, err := New(Config{Workers: 4, Mode: ModePush, Aggregators: []int{agg}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, stats, err := cluster.Run(buildWordCount(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	for src, row := range stats.TrafficMatrix {
		for dst, v := range row {
			if dst != agg && dst != src && v != 0 {
				t.Fatalf("push mode moved %d bytes from %d to non-aggregator %d\nmatrix: %v",
					v, src, dst, stats.TrafficMatrix)
			}
		}
	}
	var intoAgg int64
	for src, row := range stats.TrafficMatrix {
		if src != agg {
			intoAgg += row[agg]
		}
	}
	if intoAgg == 0 {
		t.Fatal("no cross-worker bytes reached the aggregator")
	}
}

// TestFetchModeMatrixAccountsAllBytes checks the byte-conservation
// invariant under the fetch baseline too.
func TestFetchModeMatrixAccountsAllBytes(t *testing.T) {
	cluster, err := New(Config{Workers: 4, Mode: ModeFetch})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	_, stats, err := cluster.Run(buildWordCount(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesOverTCP == 0 {
		t.Fatal("fetch run moved no bytes")
	}
	if got, want := matrixTotal(stats.TrafficMatrix), stats.BytesOverTCP; got != want {
		t.Fatalf("traffic matrix total = %d, BytesOverTCP = %d", got, want)
	}
	if got := stats.BytesByClass["shuffle"]; got == 0 {
		t.Fatalf("fetch run recorded no shuffle-class bytes: %v", stats.BytesByClass)
	}
}

// TestReceiveSpansCarryCodecBytes pins the spans' byte accounting: a push
// span, and the receive spans linked to it together, report the
// record-codec bytes that push sent, and a fetch span reports what the
// serve spans nested under it add up to — whether the chunks crossed the
// wire raw or compressed.
func TestReceiveSpansCarryCodecBytes(t *testing.T) {
	const chunkRecords = 16
	build := func() (*rdd.RDD, []float64) {
		g := rdd.NewGraph()
		parts := make([]rdd.InputPartition, 4)
		sent := make([]float64, len(parts)) // codec bytes of each map output's chunks
		for p := range parts {
			parts[p] = rdd.InputPartition{ModeledBytes: 1, Records: pairs(50 + 30*p)}
			for _, chunk := range splitRecords(parts[p].Records, chunkRecords) {
				sent[p] += rdd.EncodedSize(chunk)
			}
		}
		// No map-side combine: each map output is its input partition.
		return g.Input("in", parts).GroupByKey("group", 2), sent
	}
	// Heartbeats at their default period, then off: the spans reach the
	// recorder on beats and in the final flush, or in the flush alone.
	for _, v := range []struct {
		codec     string
		heartbeat time.Duration
	}{{CodecNone, 0}, {CodecFlate, 0}, {CodecNone, -1}, {CodecFlate, -1}} {
		codec := v.codec
		tr := &trace.SyncRecorder{}
		cluster, err := New(Config{
			Workers: 2, Mode: ModePush, Aggregators: []int{1},
			ChunkRecords: chunkRecords, Compression: codec, Trace: tr,
			HeartbeatInterval: v.heartbeat,
		})
		if err != nil {
			t.Fatal(err)
		}
		job, sent := build()
		_, stats, err := cluster.Run(job)
		cluster.Close()
		if err != nil {
			t.Fatal(err)
		}
		if codec != CodecNone && stats.BytesRaw <= stats.BytesOverTCP {
			t.Fatalf("codec %q: nothing was compressed, the test would prove nothing", codec)
		}
		mapPartOf := map[trace.SpanID]int{}
		pushed := make([]float64, len(sent))
		fetched := map[trace.SpanID]float64{}
		for _, s := range tr.Spans() {
			switch s.Kind {
			case trace.KindPush:
				mapPartOf[s.ID] = s.Part
				pushed[s.Part] = s.Bytes
			case trace.KindFetch:
				fetched[s.ID] = s.Bytes
			}
		}
		received := make([]float64, len(sent))
		served := map[trace.SpanID]float64{}
		for _, s := range tr.Spans() {
			if s.Kind == trace.KindServe {
				if _, ok := fetched[s.Parent]; !ok {
					t.Fatalf("codec %q: serve span %d nests under no fetch span", codec, s.ID)
				}
				served[s.Parent] += s.Bytes
			}
			if s.Kind != trace.KindReceive {
				continue
			}
			part, ok := mapPartOf[s.Link]
			if !ok {
				t.Fatalf("codec %q: receive span %d links to no push span", codec, s.ID)
			}
			if s.Bytes <= 0 {
				t.Errorf("codec %q: receive span of map %d reports %v bytes", codec, part, s.Bytes)
			}
			received[part] += s.Bytes
		}
		for p := range sent {
			if received[p] != sent[p] || pushed[p] != sent[p] {
				t.Errorf("codec %q: map %d: its push sent %v codec bytes, the push span reports %v, its receive spans %v",
					codec, p, sent[p], pushed[p], received[p])
			}
		}
		// Both ends of a fetch agree too, and between them the fetches
		// moved every record the pushes delivered.
		var fetchTotal, sentTotal float64
		for id, b := range fetched {
			if b <= 0 || b != served[id] {
				t.Errorf("codec %q: fetch span %d reports %v bytes, its serve spans %v", codec, id, b, served[id])
			}
			fetchTotal += b
		}
		for _, b := range sent {
			sentTotal += b
		}
		if len(fetched) == 0 || fetchTotal < sentTotal*0.9 || fetchTotal > sentTotal*1.1 {
			t.Errorf("codec %q: %d fetch spans report %v bytes for %v pushed", codec, len(fetched), fetchTotal, sentTotal)
		}
	}
}
