package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"wanshuffle/internal/topology"
)

func TestNilRecorderDiscards(t *testing.T) {
	var r *Recorder
	r.Add(Span{Kind: KindMap, Start: 0, End: 1}) // must not panic
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder returned spans: %v", got)
	}
}

func TestSpansSortedByStart(t *testing.T) {
	r := &Recorder{}
	r.Add(Span{Kind: KindReduce, Start: 5, End: 6})
	r.Add(Span{Kind: KindMap, Start: 1, End: 2})
	r.Add(Span{Kind: KindPush, Start: 3, End: 4})
	spans := r.Spans()
	if len(spans) != 3 || spans[0].Kind != KindMap || spans[2].Kind != KindReduce {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestByKindFilters(t *testing.T) {
	r := &Recorder{}
	r.Add(Span{Kind: KindMap, Start: 0, End: 1})
	r.Add(Span{Kind: KindPush, Start: 1, End: 2})
	r.Add(Span{Kind: KindMap, Start: 2, End: 3})
	if got := len(r.ByKind(KindMap)); got != 2 {
		t.Fatalf("ByKind(map) = %d, want 2", got)
	}
	if got := len(r.ByKind(KindFail)); got != 0 {
		t.Fatalf("ByKind(fail) = %d, want 0", got)
	}
}

func TestBackwardsSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Recorder{}).Add(Span{Start: 2, End: 1})
}

func TestGanttRendering(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	r := &Recorder{}
	r.Add(Span{Kind: KindMap, Host: 0, Start: 0, End: 5})
	r.Add(Span{Kind: KindPush, Host: 0, Start: 5, End: 8})
	r.Add(Span{Kind: KindReduce, Host: 2, Start: 8, End: 10})
	g := r.Gantt(topo, 40)
	if !strings.Contains(g, "M") || !strings.Contains(g, "P") || !strings.Contains(g, "R") {
		t.Fatalf("gantt missing glyphs:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	// Header + 2 host rows + legend.
	if len(lines) != 4 {
		t.Fatalf("gantt has %d lines:\n%s", len(lines), g)
	}
	if !strings.Contains(g, "legend") {
		t.Fatal("gantt missing legend")
	}
}

func TestGanttEmpty(t *testing.T) {
	r := &Recorder{}
	if got := r.Gantt(topology.TwoDCMicro(2, 0.25), 40); !strings.Contains(got, "no spans") {
		t.Fatalf("empty gantt = %q", got)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	r := &Recorder{}
	r.Add(Span{Kind: KindMap, Host: 0, Start: 0, End: 1})
	if g := r.Gantt(topo, 1); !strings.Contains(g, "M") {
		t.Fatalf("clamped gantt broken:\n%s", g)
	}
}

func TestGanttRightEdgeSpanVisible(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	r := &Recorder{}
	r.Add(Span{Kind: KindMap, Host: 0, Start: 0, End: 10})
	// A span whose scaled start lands at/after the right edge (here a
	// zero-length span exactly at tMax) must still paint one cell.
	r.Add(Span{Kind: KindReduce, Host: 1, Start: 10, End: 10})
	g := r.Gantt(topo, 40)
	if !strings.Contains(g, "R") {
		t.Fatalf("right-edge span rendered no glyph:\n%s", g)
	}
}

// TestSyncRecorderRenderRace hammers concurrent Add against Gantt and
// Chrome-trace rendering; run under -race it proves live backends can
// export mid-job.
func TestSyncRecorderRenderRace(t *testing.T) {
	topo := topology.TwoDCMicro(2, 0.25)
	s := &SyncRecorder{}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(Span{Kind: KindMap, Host: topology.HostID(g), Start: float64(i), End: float64(i + 1)})
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if g := s.Gantt(topo, 60); g == "" {
			t.Fatal("empty gantt")
		}
		var buf bytes.Buffer
		if err := s.WriteChromeTrace(&buf, topo); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := len(s.Spans()); got != writers*perWriter {
		t.Fatalf("recorded %d spans, want %d", got, writers*perWriter)
	}
}

// TestRecorderReset checks a recorder that outlives one job starts the next
// trace empty, and that a nil recorder tolerates the call like every other.
func TestRecorderReset(t *testing.T) {
	r := &Recorder{}
	r.Add(Span{ID: 1, Kind: KindMap, Start: 0, End: 1})
	r.Reset()
	if n := len(r.Spans()); n != 0 {
		t.Fatalf("after Reset: %d spans", n)
	}
	r.Add(Span{ID: 2, Kind: KindReduce, Start: 1, End: 2})
	if got := r.Spans(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("after Reset and Add: %+v", got)
	}
	(*Recorder)(nil).Reset()
}

func TestNilSyncRecorderRenders(t *testing.T) {
	var s *SyncRecorder
	topo := topology.TwoDCMicro(2, 0.25)
	if g := s.Gantt(topo, 40); !strings.Contains(g, "no spans") {
		t.Fatalf("nil SyncRecorder gantt = %q", g)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf, topo); err != nil {
		t.Fatalf("nil SyncRecorder chrome trace: %v", err)
	}
}

func TestGlyphCoverage(t *testing.T) {
	for _, k := range []Kind{KindMap, KindReduce, KindPush, KindReceive, KindFetch, KindInput, KindResult, KindServe, KindFail} {
		if k.glyph() == '?' {
			t.Fatalf("kind %q has no glyph", k)
		}
	}
	if Kind("bogus").glyph() != '?' {
		t.Fatal("unknown kind should render ?")
	}
}
