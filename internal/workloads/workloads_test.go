package workloads

import (
	"reflect"
	"testing"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
)

// runWorkload executes one workload under one scheme at reduced scale and
// validates its output.
func runWorkload(t *testing.T, w *Workload, scheme core.Scheme, seed int64) *core.Report {
	t.Helper()
	ctx := core.NewContext(core.Config{Seed: seed, Scheme: scheme})
	inst := w.Make(ctx, Options{Seed: seed, Scale: 0.02})
	rep, err := ctx.Collect(inst.Target)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, scheme, err)
	}
	if err := inst.Validate(rep.Records); err != nil {
		t.Fatalf("%s/%v: validation failed: %v", w.Name, scheme, err)
	}
	return rep
}

func TestAllWorkloadsAllSchemes(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, scheme := range []core.Scheme{core.SchemeSpark, core.SchemeCentralized, core.SchemeAggShuffle} {
				rep := runWorkload(t, w, scheme, 11)
				if rep.JCT <= 0 {
					t.Fatalf("%v JCT = %v", scheme, rep.JCT)
				}
			}
		})
	}
}

// TestSameSeedSameSimRun pins the "same seed ⇒ same sim run" invariant on
// the case that broke it: WordCount under AggShuffle at seed 5 sits on a
// rounding edge of the reducer-locality threshold, so summing a reducer's
// per-host input bytes in Go's map order flipped one reducer's placement
// (and the JCT from 15.3 s to 17.7 s) in roughly one fresh run out of
// eight.
func TestSameSeedSameSimRun(t *testing.T) {
	w, err := ByName("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	var first *exec.Result
	for i := 0; i < 60; i++ {
		ctx := core.NewContext(core.Config{Seed: 5, Scheme: core.SchemeAggShuffle})
		rep, err := ctx.Save(w.Make(ctx, Options{Seed: 5}).Target)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep.Result
		} else if !reflect.DeepEqual(rep.Result, first) {
			t.Fatalf("fresh engine %d diverged: JCT %.3f s, %d task attempts; engine 0 had JCT %.3f s, %d attempts",
				i, rep.JCT, rep.TaskAttempts, first.JCT, first.TaskAttempts)
		}
	}
}

func TestWorkloadCatalog(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("catalog has %d workloads, want 5", len(all))
	}
	wantOrder := []string{"WordCount", "Sort", "TeraSort", "PageRank", "NaiveBayes"}
	fig8 := 0
	for i, w := range all {
		if w.Name != wantOrder[i] {
			t.Fatalf("catalog order %v", w.Name)
		}
		if w.TableI == "" {
			t.Fatalf("%s missing Table I spec", w.Name)
		}
		if w.InFig8 {
			fig8++
		}
	}
	if fig8 != 4 {
		t.Fatalf("Fig. 8 covers %d workloads, want 4 (no WordCount)", fig8)
	}
	if _, err := ByName("pagerank"); err != nil {
		t.Fatal("ByName is not case-insensitive")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown workload")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range All() {
		a := w.MakeReference(Options{Seed: 5})
		b := w.MakeReference(Options{Seed: 5})
		if len(a) != len(b) {
			t.Fatalf("%s reference nondeterministic", w.Name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s reference record %d differs", w.Name, i)
			}
		}
		c := w.MakeReference(Options{Seed: 6})
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s ignores the seed", w.Name)
		}
	}
}

// placedBytes sums the real record bytes of placed inputs.
func placedBytes(ins []*rdd.RDD) float64 {
	var n float64
	for _, in := range ins {
		for _, p := range in.Input {
			n += rdd.SizeOfAll(p.Records)
		}
	}
	return n
}

// TestWordCountCombineShrinksShuffle checks the ratio that drives the
// paper's WordCount result: the combined map output must be a small
// fraction of the raw input.
func TestWordCountCombineShrinksShuffle(t *testing.T) {
	w := WordCount()
	ins := w.place(core.NewContext(core.Config{}), Options{Seed: 1, MapParts: 8})
	count := w.Flow(ins).Deps[0] // wc.count's shuffle over wc.split
	var combinedBytes float64
	for _, part := range rdd.EvalLocal(count.Parent) {
		combinedBytes += rdd.SizeOfAll(rdd.MapSidePrepare(count.Shuffle, part))
	}
	if ratio := combinedBytes / placedBytes(ins); ratio > 0.15 {
		t.Fatalf("combine ratio = %.3f, want well under raw input", ratio)
	}
}

// TestTeraSortMapBloatsData checks the HiBench quirk: the pre-shuffle map
// output is larger than the raw input.
func TestTeraSortMapBloatsData(t *testing.T) {
	w := TeraSort()
	ins := w.place(core.NewContext(core.Config{}), Options{Seed: 1, MapParts: 8})
	sorted := w.Flow(ins).Deps[0].Parent // terasort.strip ← terasort.sorted
	var bloated float64
	for _, part := range rdd.EvalLocal(sorted.Deps[0].Parent) { // terasort.tag
		bloated += rdd.SizeOfAll(part)
	}
	ratio := bloated / placedBytes(ins)
	if ratio < 1.1 || ratio > 2.0 {
		t.Fatalf("TeraSort bloat ratio = %.2f, want 1.1-2.0 (output larger than input)", ratio)
	}
}

// TestPageRankIterationsShuffleRepeatedly confirms the iterative structure
// that produces the paper's largest traffic reduction: under the Spark
// baseline, every iteration crosses datacenters again; under AggShuffle
// only the early aggregation does.
func TestPageRankIterationsShuffleRepeatedly(t *testing.T) {
	spark := runWorkload(t, PageRank(), core.SchemeSpark, 3)
	agg := runWorkload(t, PageRank(), core.SchemeAggShuffle, 3)
	if agg.CrossDCBytes >= spark.CrossDCBytes {
		t.Fatalf("AggShuffle PageRank traffic %v not below Spark %v", agg.CrossDCBytes, spark.CrossDCBytes)
	}
	reduction := 1 - agg.CrossDCBytes/spark.CrossDCBytes
	if reduction < 0.5 {
		t.Fatalf("PageRank reduction = %.1f%%, want the workload's signature large cut", reduction*100)
	}
	// The baseline's shuffle traffic must dwarf its input traffic —
	// iterations, not input movement, dominate.
	if spark.CrossDCByTag[exec.TagShuffle] < spark.CrossDCByTag[exec.TagInput] {
		t.Fatalf("baseline PageRank dominated by input traffic: %v", spark.CrossDCByTag)
	}
}

// TestTeraSortCentralizedShipsLess reproduces the paper's TeraSort
// anomaly: because the map bloats the data, the Centralized baseline moves
// fewer bytes than automatic aggregation (Fig. 8).
func TestTeraSortCentralizedShipsLess(t *testing.T) {
	cent := runWorkload(t, TeraSort(), core.SchemeCentralized, 3)
	agg := runWorkload(t, TeraSort(), core.SchemeAggShuffle, 3)
	if cent.CrossDCBytes >= agg.CrossDCBytes {
		t.Fatalf("Centralized TeraSort %v not below AggShuffle %v (bloated map)", cent.CrossDCBytes, agg.CrossDCBytes)
	}
}

// TestWebJoinExtension validates the extension workload under all schemes
// and checks its join-dominated shape: a large AggShuffle traffic cut
// because joins cannot combine map-side.
func TestWebJoinExtension(t *testing.T) {
	w := WebJoin()
	spark := runWorkload(t, w, core.SchemeSpark, 7)
	agg := runWorkload(t, w, core.SchemeAggShuffle, 7)
	_ = runWorkload(t, w, core.SchemeCentralized, 7)
	if agg.CrossDCBytes >= spark.CrossDCBytes*0.8 {
		t.Fatalf("WebJoin AggShuffle cut only %.0f%%; joins should benefit strongly",
			(1-agg.CrossDCBytes/spark.CrossDCBytes)*100)
	}
	if len(Extensions()) == 0 {
		t.Fatal("extension catalog empty")
	}
	for _, ext := range Extensions() {
		for _, base := range All() {
			if ext.Name == base.Name {
				t.Fatalf("extension %s shadows a paper workload", ext.Name)
			}
		}
	}
}

// TestTeraSortExplicitTransferFixesIt reproduces Sec. V-B's prescription:
// an explicit transferTo before the bloating map recovers the loss.
func TestTeraSortExplicitTransferFixesIt(t *testing.T) {
	auto := runWorkload(t, TeraSort(), core.SchemeAggShuffle, 3)
	explicit := runWorkload(t, TeraSortExplicit(), core.SchemeManual, 3)
	if explicit.CrossDCBytes >= auto.CrossDCBytes {
		t.Fatalf("explicit transfer %v not below auto aggregation %v", explicit.CrossDCBytes, auto.CrossDCBytes)
	}
}
