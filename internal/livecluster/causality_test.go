package livecluster

import (
	"fmt"
	"testing"
	"time"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/trace"
)

// TestWorkerSpansOrderCausally holds the one clock end to end: three workers
// run a push-mode job, their server-side spans reach the driver's recorder on
// ticker beats or, with heartbeats off, in the end-of-run flush, and either
// way the raw trace is causally ordered with nothing aligning it — every
// span, driver or worker side, was stamped on the run's clock, and a receive
// reads its start after its send's request arrived.
func TestWorkerSpansOrderCausally(t *testing.T) {
	// Beat fast so the short test job spans several merges.
	for _, hb := range []time.Duration{2 * time.Millisecond, -1} {
		t.Run(fmt.Sprint("heartbeat ", hb), func(t *testing.T) { workerSpansOrderCausally(t, hb) })
	}
}

func workerSpansOrderCausally(t *testing.T, heartbeat time.Duration) {
	rec := &trace.Recorder{}
	cluster, err := New(Config{
		Workers:           3,
		Mode:              ModePush,
		Trace:             rec,
		HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	want := canon(rdd.CollectLocal(buildChained()))
	out, stats, err := cluster.Run(buildChained())
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("run output diverges from reference")
	}

	// The raw trace must be ordered before report-time causality enforcement
	// touches it, and exactly.
	raw := rec.Spans()
	byID := map[trace.SpanID]trace.Span{}
	for _, s := range raw {
		if s.ID != 0 {
			byID[s.ID] = s
		}
	}
	recvs := 0
	for _, s := range raw {
		if s.Kind != trace.KindReceive {
			continue
		}
		recvs++
		if s.Link == 0 {
			t.Fatalf("receive span %d has no link to its send", s.ID)
		}
		send, ok := byID[s.Link]
		if !ok {
			t.Fatalf("receive span %d links to unknown span %d", s.ID, s.Link)
		}
		if s.Start < send.Start {
			t.Errorf("receive %d starts %.9fs before its send %d", s.ID, send.Start-s.Start, s.Link)
		}
		if s.Start < 0 || s.End > stats.CompletionSec {
			t.Errorf("receive span [%f,%f] outside run window [0,%f]", s.Start, s.End, stats.CompletionSec)
		}
	}
	if recvs == 0 {
		t.Fatal("push-mode run recorded no receive spans")
	}

	// Causality enforcement has nothing left to move.
	spans := trace.EnforceCausality(raw)
	enforced := map[trace.SpanID]trace.Span{}
	hosts := map[int]bool{}
	traces := map[trace.TraceID]bool{}
	for _, s := range spans {
		if s.ID != 0 {
			enforced[s.ID] = s
		}
		hosts[int(s.Host)] = true
		if s.Trace != "" {
			traces[s.Trace] = true
		}
	}
	for _, s := range spans {
		if s.Link == 0 {
			continue
		}
		if send, ok := enforced[s.Link]; ok && s.Start < send.Start {
			t.Errorf("enforced trace still has receive %d before send %d", s.ID, s.Link)
		}
	}
	if len(hosts) < 2 {
		t.Fatalf("trace covers %d hosts, want >= 2", len(hosts))
	}
	if len(traces) != 1 {
		t.Fatalf("spans carry %d distinct trace IDs, want exactly 1", len(traces))
	}

	// The run report's critical path must exist and keep its attribution
	// invariant.
	rep := stats.RunReport("chained", rec)
	cp := rep.CriticalPath
	if cp == nil {
		t.Fatal("run report has no critical_path section")
	}
	if sum := cp.ComputeFrac + cp.TransferFrac + cp.WaitFrac; sum > 1+1e-9 {
		t.Fatalf("critical-path fractions sum to %f, want <= 1", sum)
	}
	if len(cp.Steps) == 0 {
		t.Fatal("critical path has no steps")
	}
}
