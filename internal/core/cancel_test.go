package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wanshuffle/internal/rdd"
)

// TestSaveContextDeadlineStopsEventLoop bounds a simulator job whose map
// tasks burn wall-clock time: the engine's event loop must notice the
// expired context while tasks remain, not only once the job has run out.
// 2,000 map calls at 1 ms each outlast a 20 ms deadline many times over;
// how many run before the loop stops is set by how often it polls the
// context, not by timing.
func TestSaveContextDeadlineStopsEventLoop(t *testing.T) {
	const parts = 2000
	c := NewContext(Config{Seed: 1})
	recs := make([]rdd.Pair, parts)
	for i := range recs {
		recs[i] = rdd.KV(fmt.Sprintf("k%d", i%5), 1)
	}
	var calls atomic.Int64
	slow := c.DistributeRecords("slow-in", recs, parts, 1e6).Map("nap", func(p rdd.Pair) rdd.Pair {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return p
	}).ReduceByKey("r", 4, sum)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.SaveContext(ctx, slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	n := calls.Load()
	if n >= parts {
		t.Fatalf("all %d map calls ran: the event loop never polled the context", n)
	}
	t.Logf("%d of %d map calls ran", n, parts)
}
