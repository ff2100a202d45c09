package livecluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/trace"
)

// fmtSscanf parses a "wN" worker label.
func fmtSscanf(label string, id *int) (int, error) {
	return fmt.Sscanf(label, "w%d", id)
}

// TestSkewedWorkerClocksAlignCausally proves the clock-alignment path end
// to end: three workers with multi-second injected clock skews run a
// push-mode job, their server-side spans (stamped on skewed local clocks)
// ride heartbeats to the driver, and after offset rebasing the merged
// trace is causally ordered — no receive starts before the push-send it
// links to, despite the raw stamps being seconds apart. With heartbeats
// off the same spans reach the driver in the end-of-run flush, which has
// no sync exchange to go by and needs none: in-process, its one-way offset
// is exact.
func TestSkewedWorkerClocksAlignCausally(t *testing.T) {
	// Beat fast so the short test job spans several clock-sync exchanges.
	for _, hb := range []time.Duration{2 * time.Millisecond, -1} {
		t.Run(fmt.Sprint("heartbeat ", hb), func(t *testing.T) { skewedWorkerClocksAlignCausally(t, hb) })
	}
}

func skewedWorkerClocksAlignCausally(t *testing.T, heartbeat time.Duration) {
	skews := []float64{4.0, -3.0, 9.0}
	rec := &trace.SyncRecorder{}
	cluster, err := New(Config{
		Workers:           3,
		Mode:              ModePush,
		Trace:             rec,
		HeartbeatInterval: heartbeat,
		ClockSkew:         skews,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if heartbeat > 0 {
		// Let each worker complete a few sync exchanges so offset estimates
		// exist before the job's spans are stamped.
		time.Sleep(25 * time.Millisecond)
	}
	want := canon(rdd.CollectLocal(buildChained()))
	out, stats, err := cluster.Run(buildChained())
	if err != nil {
		t.Fatal(err)
	}
	if canon(out) != want {
		t.Fatal("skewed-clock run output diverges from reference")
	}

	// The merged trace must be self-consistent even before report-time
	// causality enforcement: alignment error on loopback is microseconds,
	// so any receive preceding its send by more than 100ms means the
	// multi-second skews leaked through unaligned.
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
		if send.Start-s.Start > 0.1 {
			t.Errorf("receive %d starts %.3fs before its send %d: skew not aligned",
				s.ID, send.Start-s.Start, s.Link)
		}
		// Rebased worker stamps must land inside the run window, not at
		// the raw skews (±3–9s outside it).
		if s.Start < -0.1 || s.End > stats.CompletionSec+0.5 {
			t.Errorf("receive span [%f,%f] outside run window [0,%f]", s.Start, s.End, stats.CompletionSec)
		}
	}
	if recvs == 0 {
		t.Fatal("push-mode run recorded no receive spans")
	}

	// After causality enforcement the ordering is exact.
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
	// invariant over the aligned spans.
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

	if heartbeat < 0 {
		return
	}
	// Heartbeats published each worker's offset estimate; it must be close
	// to the negated injected skew (driver clock minus worker clock).
	found := 0
	for _, mp := range rep.Metrics {
		if mp.Name != "clock_offset_sec" {
			continue
		}
		found++
		var id int
		if _, err := fmtSscanf(mp.Labels["worker"], &id); err != nil {
			t.Fatalf("bad worker label %q", mp.Labels["worker"])
		}
		if id < 0 || id >= len(skews) {
			t.Fatalf("offset gauge for unknown worker %d", id)
		}
		if math.Abs(mp.Value-(-skews[id])) > 0.5 {
			t.Errorf("worker %d offset estimate %f, want ~%f", id, mp.Value, -skews[id])
		}
	}
	if found == 0 {
		t.Fatal("no clock_offset_sec gauges published")
	}
}
