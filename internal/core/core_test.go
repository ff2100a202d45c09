package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

const mb = 1e6

func sum(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }

func buildWordCount(c *Context) *rdd.RDD {
	var recs []rdd.Pair
	for i := 0; i < 200; i++ {
		recs = append(recs, rdd.KV(fmt.Sprintf("l%d", i), fmt.Sprintf("w%d w%d w3", i%7, i%13)))
	}
	in := c.DistributeRecords("text", recs, 8, 200*mb)
	words := in.MapMulti("words", func(p rdd.Pair, emit func(rdd.Pair)) {
		for _, w := range strings.Fields(p.Value.(string)) {
			emit(rdd.KV(w, 1))
		}
	})
	return words.ReduceByKey("counts", 8, sum)
}

func canon(records []rdd.Pair) string {
	cp := make([]rdd.Pair, len(records))
	copy(cp, records)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	var b strings.Builder
	for _, p := range cp {
		fmt.Fprintf(&b, "%s=%v;", p.Key, p.Value)
	}
	return b.String()
}

func TestSchemesAgreeOnResults(t *testing.T) {
	var outputs []string
	var reports []*Report
	for _, scheme := range []Scheme{SchemeSpark, SchemeCentralized, SchemeAggShuffle} {
		c := NewContext(Config{Seed: 1, Scheme: scheme})
		rep, err := c.Collect(buildWordCount(c))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		outputs = append(outputs, canon(rep.Records))
		reports = append(reports, rep)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("scheme %v output differs from Spark baseline", reports[i].Scheme)
		}
	}
	// AggShuffle must not fetch shuffle data across DCs.
	agg := reports[2]
	if agg.CrossDCByTag[exec.TagShuffle] > 0 {
		t.Fatalf("AggShuffle fetched across DCs: %v", agg.CrossDCByTag)
	}
	if agg.CrossDCByTag[exec.TagPush] <= 0 {
		t.Fatal("AggShuffle recorded no push traffic")
	}
	// Centralized must move inputs, not shuffle data.
	cent := reports[1]
	if cent.CrossDCByTag[exec.TagCentralize] <= 0 || cent.CrossDCByTag[exec.TagShuffle] > 0 {
		t.Fatalf("Centralized traffic mix wrong: %v", cent.CrossDCByTag)
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeSpark: "Spark", SchemeCentralized: "Centralized",
		SchemeAggShuffle: "AggShuffle", SchemeManual: "Manual",
		Scheme(42): "Scheme(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(s), got, want)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := NewContext(Config{})
	if c.Topology().NumDCs() != 6 {
		t.Fatal("default topology is not the six-region cluster")
	}
	if c.Scheme() != SchemeSpark {
		t.Fatalf("default scheme = %v, want Spark", c.Scheme())
	}
}

func TestDistributeRecordsSpreadsAcrossDCs(t *testing.T) {
	c := NewContext(Config{})
	var recs []rdd.Pair
	for i := 0; i < 100; i++ {
		recs = append(recs, rdd.KV(fmt.Sprintf("k%d", i), i))
	}
	in := c.DistributeRecords("in", recs, 24, 240*mb)
	dcs := map[topology.DCID]bool{}
	total := 0
	for _, p := range in.Input {
		dcs[c.Topology().DCOf(p.Host)] = true
		total += len(p.Records)
		if p.ModeledBytes != 10*mb {
			t.Fatalf("partition modeled bytes = %v, want 10 MB", p.ModeledBytes)
		}
	}
	if len(dcs) != 6 {
		t.Fatalf("partitions span %d DCs, want 6", len(dcs))
	}
	if total != 100 {
		t.Fatalf("records distributed = %d, want 100", total)
	}
}

func TestGanttRequiresTracing(t *testing.T) {
	c := NewContext(Config{Seed: 1})
	rep, err := c.Count(buildWordCount(c))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Gantt(60), "disabled") {
		t.Fatal("expected tracing-disabled notice")
	}
	c2 := NewContext(Config{Seed: 1, Exec: exec.Config{Trace: true}})
	rep2, err := c2.Count(buildWordCount(c2))
	if err != nil {
		t.Fatal(err)
	}
	g := rep2.Gantt(60)
	if !strings.Contains(g, "|") || len(rep2.Spans()) == 0 {
		t.Fatalf("gantt missing content:\n%s", g)
	}
}

func TestManualSchemeHonorsExplicitTransfer(t *testing.T) {
	c := NewContext(Config{Seed: 1, Scheme: SchemeManual})
	var recs []rdd.Pair
	for i := 0; i < 50; i++ {
		recs = append(recs, rdd.KV(fmt.Sprintf("k%d", i%5), 1))
	}
	in := c.DistributeRecords("in", recs, 8, 80*mb)
	va, _ := c.Topology().DCByName(topology.Virginia)
	job := in.TransferTo(va).ReduceByKey("r", 4, sum)
	rep, err := c.Collect(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrossDCByTag[exec.TagPush] <= 0 {
		t.Fatalf("manual transfer produced no pushes: %v", rep.CrossDCByTag)
	}
	if rep.CrossDCByTag[exec.TagShuffle] > 0 {
		t.Fatalf("manual transfer still fetched across DCs: %v", rep.CrossDCByTag)
	}
}

func TestCountAction(t *testing.T) {
	c := NewContext(Config{Seed: 1})
	rep, err := c.Count(buildWordCount(c))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range rep.Counts {
		total += n
	}
	// 200 lines × 3 words, counted by distinct word: between 1 and 600.
	if total <= 0 || total > 600 {
		t.Fatalf("count = %d", total)
	}
}
