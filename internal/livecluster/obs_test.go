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
// worker's column stays zero, and so does the diagonal, the aggregator's cell
// included: what it holds it reads without a socket.
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
			if (dst != agg || src == agg) && v != 0 {
				t.Fatalf("push mode moved %d bytes from %d to %d, not from another worker to the aggregator\nmatrix: %v",
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

// TestReceiveSpansCarryCodecBytes pins the spans' byte accounting, which
// follows the sockets: a push span, and the receive span linked to it, report
// the record-codec bytes that push sent, and a map task that ran on its
// aggregator has neither; a fetch span reports what the serve spans nested
// under it add up to — whether the chunks crossed the wire raw or compressed
// — and a gather that touched no socket still leaves its fetch span, with
// its records, no bytes and itself as the source.
func TestReceiveSpansCarryCodecBytes(t *testing.T) {
	const chunkRecords = 16
	const agg = 1
	build := func() (*rdd.RDD, []float64, int) {
		g := rdd.NewGraph()
		parts := make([]rdd.InputPartition, 4)
		sent := make([]float64, len(parts)) // codec bytes of each map output's chunks
		records := 0
		for p := range parts {
			parts[p] = rdd.InputPartition{ModeledBytes: 1, Records: pairs(50 + 30*p)}
			records += len(parts[p].Records)
			sent[p] = streamedBytes(parts[p].Records, chunkRecords)
		}
		// No map-side combine: each map output is its input partition.
		return g.Input("in", parts).GroupByKey("group", 2), sent, records
	}
	// Push mode, where the reducers sit on the aggregator and read locally,
	// and fetch mode, where most reads have serves. Heartbeats at their
	// default period, then off: the spans reach the recorder on beats and in
	// the final flush, or in the flush alone.
	for _, v := range []struct {
		mode      Mode
		codec     string
		heartbeat time.Duration
	}{
		{ModePush, CodecNone, 0}, {ModePush, CodecFlate, 0}, {ModePush, CodecNone, -1}, {ModePush, CodecFlate, -1},
		{ModeFetch, CodecNone, 0}, {ModeFetch, CodecFlate, -1},
	} {
		tr := &trace.SyncRecorder{}
		cluster, err := New(Config{
			Workers: 2, Mode: v.mode, Aggregators: []int{agg},
			ChunkRecords: chunkRecords, Compression: v.codec, Trace: tr,
			HeartbeatInterval: v.heartbeat,
		})
		if err != nil {
			t.Fatal(err)
		}
		job, sent, records := build()
		_, stats, err := cluster.Run(job)
		cluster.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.codec != CodecNone && stats.BytesRaw <= stats.BytesOverTCP {
			t.Fatalf("%v, codec %q: nothing was compressed, the test would prove nothing", v.mode, v.codec)
		}
		mapSite := map[int]int{}
		pushed := map[int]float64{} // by map partition
		pushOf := map[trace.SpanID]int{}
		fetches := map[trace.SpanID]trace.Span{}
		for _, s := range tr.Spans() {
			switch s.Kind {
			case trace.KindMap:
				mapSite[s.Part] = int(s.Host)
			case trace.KindPush:
				pushOf[s.ID] = s.Part
				pushed[s.Part] = s.Bytes
			case trace.KindFetch:
				fetches[s.ID] = s
			}
		}
		received := map[int]float64{}
		served := map[trace.SpanID]float64{}
		for _, s := range tr.Spans() {
			if s.Kind == trace.KindServe {
				if _, ok := fetches[s.Parent]; !ok {
					t.Fatalf("%v, codec %q: serve span %d nests under no fetch span", v.mode, v.codec, s.ID)
				}
				served[s.Parent] += s.Bytes
			}
			if s.Kind != trace.KindReceive {
				continue
			}
			part, ok := pushOf[s.Link]
			if !ok {
				t.Fatalf("%v, codec %q: receive span %d links to no push span", v.mode, v.codec, s.ID)
			}
			received[part] += s.Bytes
		}
		// A map output crossed a socket, with a push span and its receive,
		// exactly when push mode ran its task off the aggregator.
		for p := range sent {
			want := 0.0
			if v.mode == ModePush && mapSite[p] != agg {
				want = sent[p]
			}
			if _, has := pushed[p]; has != (want > 0) || pushed[p] != want || received[p] != want {
				t.Errorf("%v, codec %q: map %d ran on worker %d: its push should send %v codec bytes, the push span reports %v, its receive span %v",
					v.mode, v.codec, p, mapSite[p], want, pushed[p], received[p])
			}
		}
		if v.mode == ModePush && (len(pushed) == 0 || len(pushed) == len(sent)) {
			t.Fatalf("push mode: %d of %d maps pushed; the test wants some on the aggregator and some off it", len(pushed), len(sent))
		}
		// Both ends of a fetch agree, over the serves that exist; between
		// them the fetch spans account for every record the maps produced.
		var fetchedRecords, overSockets int
		for id, f := range fetches {
			if f.Bytes != served[id] {
				t.Errorf("%v, codec %q: fetch span %d reports %v bytes, its serve spans %v", v.mode, v.codec, id, f.Bytes, served[id])
			}
			if _, remote := served[id]; remote {
				overSockets++
			} else if f.Bytes != 0 || f.SrcSite != f.DstSite || f.Records == 0 {
				t.Errorf("%v, codec %q: fetch span %d touched no socket and reports %v bytes, %d records, %s→%s",
					v.mode, v.codec, id, f.Bytes, f.Records, f.SrcSite, f.DstSite)
			}
			fetchedRecords += f.Records
		}
		if len(fetches) != 2 || fetchedRecords != records {
			t.Errorf("%v, codec %q: %d fetch spans carry %d records, want the 2 reducers' and all %d", v.mode, v.codec, len(fetches), fetchedRecords, records)
		}
		if wantRemote := v.mode == ModeFetch; (overSockets > 0) != wantRemote {
			t.Errorf("%v: %d of %d gathers crossed a socket", v.mode, overSockets, len(fetches))
		}
	}
}
