package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestAllGolden pins every figure, table and ablation `wanbench all`
// prints at a small seeded configuration. The golden was recorded from the
// binary of the commit before the harness became two tables, so it holds
// the rewrite to the old numbers; at two runs the 10 % trimmed mean is the
// plain mean, so it holds Sec. V-B's change of statistic too.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var got bytes.Buffer
	if err := run([]string{"-runs", "2", "-scale", "0.1", "-seed", "1", "all"}, &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("`wanbench all` drifted from testdata/all.golden; if the figures were meant to move, rewrite it with\n"+
			"  go run ./cmd/wanbench -runs 2 -scale 0.1 -seed 1 all > cmd/wanbench/testdata/all.golden\ngot:\n%s", got.Bytes())
	}
}

// TestJitterZeroDisables holds the -jitter help text to what runs: an
// amplitude of 0 is stable links, the same figure as any negative one, and
// not the default amplitude's.
func TestJitterZeroDisables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper's sweep three times")
	}
	fig7 := func(jitter string) string {
		var out bytes.Buffer
		if err := run([]string{"-runs", "2", "-scale", "0.1", "-seed", "1", "-jitter", jitter, "fig7"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	off, zero := fig7("-1"), fig7("0")
	if zero != off {
		t.Fatalf("fig7 at -jitter 0:\n%s\ndiffers from -jitter -1:\n%s", zero, off)
	}
	if fig7("0.25") == off {
		t.Fatal("fig7 prints the same at -jitter 0.25 as with jitter off: the test cannot tell them apart")
	}
}

// TestDocsNameRealExperiments checks that every `wanbench [flags] <name>`
// the documentation tells a reader to run is in the experiments table.
func TestDocsNameRealExperiments(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	mention := regexp.MustCompile(`wanbench(?: -[a-z]+(?: [0-9.]+)?)* ([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		found := mention.FindAllSubmatch(text, -1)
		if len(found) == 0 {
			t.Errorf("%s mentions no wanbench experiment; has the pattern gone stale?", doc)
		}
		for _, m := range found {
			if !known[string(m[1])] {
				t.Errorf("%s: %q names no experiment", doc, m[0])
			}
		}
	}
}
