package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"wanshuffle/internal/topology"
)

func TestWriteChromeTrace(t *testing.T) {
	topo := topology.TwoDCMicro()
	r := &Recorder{}
	r.Add(Span{Kind: KindMap, Host: 0, Stage: 1, Part: 2, Start: 0.5, End: 2.5})
	r.Add(Span{Kind: KindPush, Host: 1, Start: 2.5, End: 4, Label: "to dc-b"})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, topo); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 DC names + 2 DC sort indexes + 4 host names + 2 spans.
	if len(doc.TraceEvents) != 2+2+4+2 {
		t.Fatalf("events = %d, want 10", len(doc.TraceEvents))
	}
	var sawMap, sawPush bool
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev["cat"] {
		case "map":
			sawMap = true
			if ev["ts"].(float64) != 0.5e6 || ev["dur"].(float64) != 2e6 {
				t.Fatalf("map timing wrong: %v", ev)
			}
		case "push":
			sawPush = true
			if !strings.Contains(ev["name"].(string), "to dc-b") {
				t.Fatalf("label lost: %v", ev)
			}
		case "__metadata":
			names[ev["name"].(string)]++
			if ev["ph"] != "M" {
				t.Fatalf("metadata event not ph=M: %v", ev)
			}
			// Perfetto folds pid/tid 0 into its defaults; everything must
			// be offset past it.
			if ev["pid"].(float64) == 0 {
				t.Fatalf("metadata event uses pid 0: %v", ev)
			}
		}
	}
	if !sawMap || !sawPush {
		t.Fatal("span events missing")
	}
	if names["process_name"] != 2 || names["process_sort_index"] != 2 || names["thread_name"] != 4 {
		t.Fatalf("metadata events = %v", names)
	}
}

// TestWriteChromeTraceFlows checks a receive span linked to its push-send
// emits a flow arrow pair bound to the right pids/tids.
func TestWriteChromeTraceFlows(t *testing.T) {
	topo := topology.TwoDCMicro()
	r := &Recorder{}
	r.Add(Span{Kind: KindPush, ID: 7, Host: 0, Start: 1, End: 3})
	r.Add(Span{Kind: KindReceive, ID: 9, Link: 7, Host: 2, Start: 1.5, End: 3.5})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, topo); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var start, finish map[string]any
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "s":
			start = ev
		case "f":
			finish = ev
		}
	}
	if start == nil || finish == nil {
		t.Fatalf("flow pair missing: s=%v f=%v", start, finish)
	}
	if start["id"] != finish["id"] {
		t.Fatalf("flow ids diverge: %v vs %v", start["id"], finish["id"])
	}
	if start["ts"].(float64) != 1e6 || finish["ts"].(float64) != 1.5e6 {
		t.Fatalf("flow timestamps wrong: s=%v f=%v", start, finish)
	}
	if finish["bp"] != "e" {
		t.Fatalf("flow finish missing bp=e: %v", finish)
	}
	// Arrow endpoints sit on the sender's and receiver's threads.
	if start["tid"].(float64) != 1 || finish["tid"].(float64) != 3 {
		t.Fatalf("flow endpoints on wrong threads: s=%v f=%v", start, finish)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	topo := topology.TwoDCMicro()
	var buf bytes.Buffer
	if err := (&Recorder{}).WriteChromeTrace(&buf, topo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatal("no document written")
	}
}
