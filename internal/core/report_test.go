package core

import (
	"fmt"
	"testing"

	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

func TestTrafficMatrixShowsAggregation(t *testing.T) {
	c := NewContext(Config{Seed: 1, Scheme: SchemeAggShuffle})
	rep, err := c.Save(buildWordCount(c))
	if err != nil {
		t.Fatal(err)
	}
	// Column sums into the driver DC (the aggregator for skewed inputs)
	// must dominate: every row's entries outside that column should be 0.
	va, _ := c.Topology().DCByName(topology.Virginia)
	for i, row := range rep.PairBytes {
		for j, v := range row {
			if topology.DCID(j) != va && v > 0 && topology.DCID(i) != va {
				t.Fatalf("AggShuffle traffic between non-aggregator DCs %d->%d: %v", i, j, v)
			}
		}
	}
}

func TestSaveReturnsRecordsWithoutResultTraffic(t *testing.T) {
	c := NewContext(Config{Seed: 1})
	rep, err := c.Save(buildWordCount(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) == 0 {
		t.Fatal("Save returned no records")
	}
	if rep.CrossDCByTag[exec.TagResult] > 1e6 {
		t.Fatalf("Save shipped results across DCs: %v", rep.CrossDCByTag)
	}
}

func TestRunConcurrentlySharesCluster(t *testing.T) {
	c := NewContext(Config{Seed: 2, Scheme: SchemeAggShuffle})
	targets := []*rdd.RDD{buildWordCount(c), buildWordCount(c)}
	reports, err := c.RunConcurrently(targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	ref := canon(reports[0].Records)
	if canon(reports[1].Records) != ref {
		t.Fatal("identical concurrent jobs disagree")
	}
	for _, rep := range reports {
		if rep.JCT <= 0 || rep.Scheme != SchemeAggShuffle {
			t.Fatalf("bad report: %+v", rep.Scheme)
		}
	}
}

func TestRunConcurrentlyCentralized(t *testing.T) {
	c := NewContext(Config{Seed: 2, Scheme: SchemeCentralized})
	reports, err := c.RunConcurrently([]*rdd.RDD{buildWordCount(c)})
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].CrossDCByTag[exec.TagCentralize] <= 0 {
		t.Fatalf("centralized concurrent run moved no inputs: %v", reports[0].CrossDCByTag)
	}
}

func TestContextAccessors(t *testing.T) {
	c := NewContext(Config{Seed: 1})
	if c.Graph() == nil || c.Engine() == nil {
		t.Fatal("accessors returned nil")
	}
	in := c.Input("explicit", []rdd.InputPartition{{Host: 0, ModeledBytes: 1, Records: []rdd.Pair{rdd.KV("a", 1)}}})
	if in.NumParts() != 1 {
		t.Fatal("Input wiring broken")
	}
}

func TestDistributeRecordsPanicsOnBadParts(t *testing.T) {
	c := NewContext(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.DistributeRecords("bad", nil, 0, 1)
}

func TestDistributeRecordsDriverSkew(t *testing.T) {
	c := NewContext(Config{})
	var recs []rdd.Pair
	for i := 0; i < 48; i++ {
		recs = append(recs, rdd.KV(fmt.Sprintf("k%d", i), i))
	}
	in := c.DistributeRecords("in", recs, 24, 240)
	byDC := map[topology.DCID]int{}
	for _, p := range in.Input {
		byDC[c.Topology().DCOf(p.Host)]++
	}
	driver := c.Topology().DriverDC
	for dc, n := range byDC {
		if dc != driver && n >= byDC[driver] {
			t.Fatalf("driver DC share %d not the largest (DC %d has %d)", byDC[driver], dc, n)
		}
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	c := NewContext(Config{Scheme: Scheme(42)})
	if _, err := c.Count(buildWordCount(c)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
