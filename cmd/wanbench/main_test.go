package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wanshuffle/internal/bench"
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
// amplitude of 0 is stable links, the same figure as the sweep run with
// jitter off (a negative amplitude, which only the flag rejects), and not
// the default amplitude's.
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
	sweep, err := bench.Fig7(bench.Options{Runs: 2, Scale: 0.1, BaseSeed: 1, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	off, zero := bench.FormatFig7(sweep), fig7("0")
	if zero != off {
		t.Fatalf("fig7 at -jitter 0:\n%s\ndiffers from the sweep with jitter off:\n%s", zero, off)
	}
	if fig7("0.25") == off {
		t.Fatal("fig7 prints the same at -jitter 0.25 as with jitter off: the test cannot tell them apart")
	}
}

// TestSeedZeroIsASeed holds -seed 0 to running seed 0: every experiment
// reads the seed it was given, so `all` never mixes seeds 0 and 1.
func TestSeedZeroIsASeed(t *testing.T) {
	fig7 := func(seed string) string {
		var out bytes.Buffer
		if err := run([]string{"-runs", "1", "-scale", "0.1", "-seed", seed, "fig7"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if zero := fig7("0"); zero == fig7("1") {
		t.Fatalf("fig7 prints the same at -seed 0 as at -seed 1:\n%s", zero)
	}
}

// TestFlagValidation holds wanbench to rejecting a run count, scale or
// jitter it cannot honour, instead of silently running the default.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-runs", "0"}, "-runs must be at least 1"},
		{[]string{"-runs", "-2"}, "-runs must be at least 1"},
		{[]string{"-scale", "0"}, "-scale must be positive and finite"},
		{[]string{"-scale", "-1"}, "-scale must be positive and finite"},
		{[]string{"-scale", "+Inf"}, "-scale must be positive and finite"},
		{[]string{"-scale", "NaN"}, "-scale must be positive and finite"},
		{[]string{"-jitter", "NaN"}, "-jitter must be finite and not negative"},
		{[]string{"-jitter", "+Inf"}, "-jitter must be finite and not negative"},
		{[]string{"-jitter", "-1"}, "-jitter must be finite and not negative"},
	} {
		args := append(append([]string{"-seed", "1"}, tc.args...), "fig1")
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", args, err, tc.want)
		}
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
