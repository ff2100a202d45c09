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

func TestBackwardsSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Recorder{}).Add(Span{Start: 2, End: 1})
}

func TestGanttRendering(t *testing.T) {
	topo := topology.TwoDCMicro()
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
	if got := r.Gantt(topology.TwoDCMicro(), 40); !strings.Contains(got, "no spans") {
		t.Fatalf("empty gantt = %q", got)
	}
}

func TestGanttTinyWidthClamped(t *testing.T) {
	topo := topology.TwoDCMicro()
	r := &Recorder{}
	r.Add(Span{Kind: KindMap, Host: 0, Start: 0, End: 1})
	if g := r.Gantt(topo, 1); !strings.Contains(g, "M") {
		t.Fatalf("clamped gantt broken:\n%s", g)
	}
}

func TestGanttRightEdgeSpanVisible(t *testing.T) {
	topo := topology.TwoDCMicro()
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

// TestRecorderRenderRace hammers concurrent Add against Gantt and
// Chrome-trace rendering; run under -race it proves live backends can
// export mid-job.
func TestRecorderRenderRace(t *testing.T) {
	topo := topology.TwoDCMicro()
	s := &Recorder{}
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

func TestNilRecorderRenders(t *testing.T) {
	var s *Recorder
	topo := topology.TwoDCMicro()
	if g := s.Gantt(topo, 40); !strings.Contains(g, "no spans") {
		t.Fatalf("nil Recorder gantt = %q", g)
	}
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf, topo); err != nil {
		t.Fatalf("nil Recorder chrome trace: %v", err)
	}
}

// TestNewSpanID checks the recorder numbers spans 1, 2, 3, … in call order,
// hands concurrent callers distinct IDs, and that a nil recorder hands out
// 0, the untraced span's ID.
func TestNewSpanID(t *testing.T) {
	r := &Recorder{}
	if a, b := r.NewSpanID(), r.NewSpanID(); a != 1 || b != 2 {
		t.Fatalf("first IDs = %d, %d; want 1, 2", a, b)
	}
	const callers, each = 4, 100
	seen := make(chan SpanID, callers*each)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seen <- r.NewSpanID()
			}
		}()
	}
	wg.Wait()
	close(seen)
	ids := map[SpanID]bool{}
	for id := range seen {
		if id <= 2 || ids[id] {
			t.Fatalf("concurrent caller got ID %d twice or from before", id)
		}
		ids[id] = true
	}
	if id := (*Recorder)(nil).NewSpanID(); id != 0 {
		t.Fatalf("nil recorder handed out ID %d", id)
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
