package exec

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// TestStructuredRunLogs runs a small job with a debug logger attached and
// checks the engine narrates its lifecycle — job and stage windows with
// stage attributes — through Config.Logger.
func TestStructuredRunLogs(t *testing.T) {
	topo := topology.TwoDCMicro()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	g := rdd.NewGraph()
	eng := New(topo, 1, Config{Logger: logger})
	if _, err := eng.Run(wordCount(spreadInput(g, topo, mb), 2), ActionCollect, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"exec: job starting",
		"exec: stage starting",
		"result:counts",
		"exec: stage finished",
		"exec: job finished",
		"jct_sec=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("run logs missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "task attempt failed") {
		t.Fatalf("clean run logged failures:\n%s", out)
	}
}

// TestFailureLogsWarn checks an injected reduce failure surfaces as a
// warning with the task attempt attribute.
func TestFailureLogsWarn(t *testing.T) {
	topo := topology.TwoDCMicro()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	g := rdd.NewGraph()
	eng := New(topo, 1, Config{
		Logger:           logger,
		ScriptedFailures: []FailureSpec{{Stage: "counts", Part: 0, Attempt: 1, AtFrac: 0.5}},
	})
	if _, err := eng.Run(wordCount(spreadInput(g, topo, mb), 2), ActionCollect, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "exec: task attempt failed") || !strings.Contains(out, "injected failure") {
		t.Fatalf("injected failure not logged at warn:\n%s", out)
	}
	if strings.Contains(out, "stage starting") {
		t.Fatalf("warn-level logger leaked debug lines:\n%s", out)
	}
}
