package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wanshuffle/internal/bench"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks from the current output")

// experimentsDoc is the document whose generated blocks are the golden.
var experimentsDoc = filepath.Join("..", "..", "EXPERIMENTS.md")

// block matches one generated block of EXPERIMENTS.md: a fenced copy of
// what one experiment prints inside `wanbench -runs 10 all`, followed by the
// blank line `all` prints after each experiment.
var block = regexp.MustCompile("(?s)<!-- wanbench -runs 10 ([a-z0-9-]+) -->\n```text\n(.*?)```\n<!-- end -->")

// TestExperimentsMatchWanbench holds every figure, table and ablation
// EXPERIMENTS.md shows to what `wanbench -runs 10 all` prints: each
// experiment of `all` has exactly one generated block, and the block is
// that experiment's output byte for byte, so the document a reader sees is
// the thing tier-1 compares. The session is run's own, so the paper sweep
// is simulated once. When the figures are meant to move, rewrite the
// blocks with
//
//	go test ./cmd/wanbench -run TestExperimentsMatchWanbench -update
func TestExperimentsMatchWanbench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at -runs 10")
	}
	s, picked, err := parse([]string{"-runs", "10", "all"})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]int{}
	for _, m := range block.FindAllSubmatch(doc, -1) {
		blocks[string(m[1])]++
	}
	want := map[string]string{}
	for _, e := range picked {
		if blocks[e.name] != 1 {
			t.Errorf("EXPERIMENTS.md has %d blocks for %s, want 1", blocks[e.name], e.name)
		}
		delete(blocks, e.name)
		out, err := e.run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		want[e.name] = out + "\n"
	}
	for name := range blocks {
		t.Errorf("EXPERIMENTS.md has a block for %s, which `all` does not print", name)
	}
	if t.Failed() {
		return
	}
	fresh := block.ReplaceAllFunc(doc, func(m []byte) []byte {
		name := string(block.FindSubmatch(m)[1])
		got := string(block.FindSubmatch(m)[2])
		if got == want[name] {
			return m
		}
		if !*update {
			t.Errorf("EXPERIMENTS.md's %s block drifted from `wanbench -runs 10 all`; if the figures were meant to move, rewrite the blocks with -update\ngot:\n%swant:\n%s", name, got, want[name])
		}
		return []byte(fmt.Sprintf("<!-- wanbench -runs 10 %s -->\n```text\n%s```\n<!-- end -->", name, want[name]))
	})
	if *update && !bytes.Equal(fresh, doc) {
		if err := os.WriteFile(experimentsDoc, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExperimentsProseQuotesItsBlock holds EXPERIMENTS.md's prose to its
// generated blocks: in every section that carries a block, each number
// written with a unit of s or MB is a whole number token of that section's
// blocks, so no measured figure can be typed by hand and go stale.
// Percentages carry no such unit, and the paper's own values are quoted
// ("…"), which exempts them.
func TestExperimentsProseQuotesItsBlock(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	number := regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?`)
	measured := regexp.MustCompile(`(?:^|[^\w.])(([0-9]+(?:\.[0-9]+)?) ?(?:s|MB))\b`)
	quoted := regexp.MustCompile(`"[^"]*"`)
	checked := 0
	for _, section := range strings.Split("\n"+string(doc), "\n## ")[1:] {
		title, _, _ := strings.Cut(section, "\n")
		blocks := block.FindAllStringSubmatch(section, -1)
		if len(blocks) == 0 {
			continue
		}
		checked++
		tokens := map[string]bool{}
		for _, b := range blocks {
			for _, tok := range number.FindAllString(b[2], -1) {
				tokens[tok] = true
			}
		}
		prose := quoted.ReplaceAllString(block.ReplaceAllString(section, ""), "")
		for _, m := range measured.FindAllStringSubmatch(prose, -1) {
			if !tokens[m[2]] {
				t.Errorf("%s: %q is not in the section's wanbench output", title, m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no EXPERIMENTS.md section carries a generated block; has the marker pattern gone stale?")
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
