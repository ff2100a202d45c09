package livecluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/rdd"
)

// opaque is a record value the planner can size (rdd.Sized) but the record
// codec cannot carry: it may live in a process, not cross a socket.
type opaque struct{}

func (opaque) SizeBytes() float64 { return 8 }

// TestUnsupportedValueFailsPushCleanly drives the wire path directly: a
// push holding a value the codec cannot carry fails with the typed error
// before the offending chunk is written, the receiver installs nothing of
// it, and the pooled connection is neither lost nor replaced.
func TestUnsupportedValueFailsPushCleanly(t *testing.T) {
	c := streamCluster(t, Config{Workers: 2, TasksPerWorker: 1, ChunkRecords: 4}, 3)
	w0, w1 := c.workers[0], c.workers[1]
	good := pairs(17)
	if _, err := w0.push(1, 7, 0, 1, good, spanCtx{}); err != nil {
		t.Fatal(err)
	}
	// With one task slot, one connection is all w0 ever needs to w1: any dial
	// beyond the first push's replaces a connection a failure cost.
	if dials := flushed(c).Dials; dials != 1 {
		t.Fatalf("first push dialed %d connections, want 1", dials)
	}

	bad := append(pairs(17), rdd.KV("bad-key", opaque{})) // in the last of five chunks
	_, err := w0.push(1, 7, 1, 1, bad, spanCtx{})
	var unsupported *rdd.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("push err = %v, want *rdd.UnsupportedValueError", err)
	}
	if unsupported.Key != "bad-key" || !strings.Contains(err.Error(), "livecluster.opaque") {
		t.Fatalf("error %q does not name the key and Go type", err)
	}
	// The receiver's only state outside the handler is its store: the
	// abandoned push left nothing behind and was not installed.
	if _, err := w1.store.Get(blockstore.Key{Shuffle: 7, MapPart: 1}); !errors.Is(err, blockstore.ErrNotFound) {
		t.Fatalf("the abandoned push was installed (Get err = %v)", err)
	}
	if n := w1.storedOutputs(); n != 1 {
		t.Fatalf("receiver holds %d outputs after the abandoned push, want the first push's one", n)
	}

	// The same connection carries the next push and the fetches.
	if _, err := w0.push(1, 7, 1, 2, good, spanCtx{}); err != nil {
		t.Fatalf("push after the failed one: %v", err)
	}
	var out []rdd.Pair
	for r := 0; r < 3; r++ {
		shard, err := fetchFlat(w0, 1, 7, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, shard...)
	}
	if canon(out) != canon(good) {
		t.Fatal("push after the failed one diverges")
	}
	stats := flushed(c)
	if stats.Dials != 0 {
		t.Fatalf("%d dials after the failed push: it cost a pooled connection", stats.Dials)
	}
	if got := matrixTotal(stats.TrafficMatrix); got != stats.BytesOverTCP {
		t.Fatalf("matrix total %d != BytesOverTCP %d", got, stats.BytesOverTCP)
	}

	// Fetch side: a locally stored output with such a value fails its
	// fetch as a remote error naming the type, on a connection that
	// stays pooled.
	if err := w1.storeMapOutput(7, 2, 1, bad); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for r := 0; r < 3; r++ {
		if _, err := fetchFlat(w0, 1, 7, 2, r); err != nil {
			failed++
			if !strings.Contains(err.Error(), "livecluster.opaque") {
				t.Fatalf("fetch error %q does not name the Go type", err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d of 3 shard fetches failed, want the one holding the value", failed)
	}
	if dials := flushed(c).Dials; dials != 0 {
		t.Fatalf("%d dials after the failed fetch: it cost a pooled connection", dials)
	}
}

// TestUnsupportedValueFailsJobNotCluster runs whole jobs on a two-worker
// cluster: one whose shuffle carries an unsupported value fails with the
// typed error (push) or an error naming the type (fetch), and the next job
// on the same cluster succeeds without dialing a single new connection.
func TestUnsupportedValueFailsJobNotCluster(t *testing.T) {
	job := func(v func(i int) rdd.Value) *rdd.RDD {
		g := rdd.NewGraph()
		parts := make([]rdd.InputPartition, 4)
		for p := range parts {
			for i := 0; i < 20; i++ {
				parts[p].Records = append(parts[p].Records, rdd.KV(fmt.Sprintf("key-%02d", i), v(p*20+i)))
			}
			parts[p].ModeledBytes = 1
		}
		grouped := g.Input("in", parts).GroupByKey("group", 2)
		return grouped.Map("count", func(p rdd.Pair) rdd.Pair { return rdd.KV(p.Key, len(p.Value.([]rdd.Value))) })
	}
	good := func(i int) rdd.Value { return i }
	bad := func(i int) rdd.Value {
		if i == 57 {
			return opaque{}
		}
		return i
	}
	for _, mode := range []Mode{ModePush, ModeFetch} {
		c, err := New(Config{
			Workers: 2, Mode: mode, Aggregators: []int{1},
			TasksPerWorker: 1, ChunkRecords: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := canon(rdd.CollectLocal(job(good)))
		if out, _, err := c.Run(job(good)); err != nil || canon(out) != want {
			t.Fatalf("%v: warm-up job: %v", mode, err)
		}

		_, _, err = c.Run(job(bad))
		if err == nil || !strings.Contains(err.Error(), "livecluster.opaque") {
			t.Fatalf("%v: job with an unsupported value: err = %v, want one naming the Go type", mode, err)
		}
		var unsupported *rdd.UnsupportedValueError
		if mode == ModePush && !errors.As(err, &unsupported) {
			t.Fatalf("push: err = %v, want *rdd.UnsupportedValueError", err)
		}

		out, stats, err := c.Run(job(good))
		if err != nil || canon(out) != want {
			t.Fatalf("%v: job after the failed one: %v", mode, err)
		}
		if stats.Dials != 0 {
			t.Fatalf("%v: job after the failed one dialed %d connections: the failure cost pooled ones", mode, stats.Dials)
		}
		c.Close()
	}
}
