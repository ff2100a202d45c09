package workloads

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
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

// generatedHashes pins every input of All() and Extensions() at seeds 0–3:
// an FNV-64a hash over each record's key and Go-syntax value. A generator
// may change how it builds a record, never what it builds: every figure
// depends on the records.
var generatedHashes = map[string][4]uint64{
	"wc.text":        {0xed1aea7922a7088c, 0xed7112ea0b0c6295, 0x3ba50ee17cd69a69, 0x8404527a28026c85},
	"sort.input":     {0x7a6000fdb4f9db4e, 0xdb7cb7db5aacab05, 0xa9c812d323c80b17, 0x1e173337f830b085},
	"terasort.input": {0x17afb7f05ff58afc, 0xdb4f0fa063850207, 0x794e883dbe5ef805, 0x03276fdb8f9e1c8e},
	"pr.edges":       {0xba65ae2130fdea82, 0x2ae16ec3c2223cf1, 0x26a70e4ee7807aab, 0xe4f08f0259444816},
	"nb.docs":        {0x93346d4704b06144, 0xba7fb4b840fd680b, 0xe16fe686fae61074, 0xd4fbd43c87bae8c1},
	"wj.rankings":    {0xd194b2c2f2fc01ef, 0xd194b2c2f2fc01ef, 0xd194b2c2f2fc01ef, 0xd194b2c2f2fc01ef},
	"wj.visits":      {0x08e9fb4e68823a3c, 0x733667dbeea080b6, 0x08ce2528cce5039f, 0xe2f143f6b538446d},
}

func TestGeneratorsArePinned(t *testing.T) {
	for _, w := range append(All(), Extensions()...) {
		for _, in := range w.inputs {
			want, ok := generatedHashes[in.Name]
			if !ok {
				t.Errorf("%s: input %s has no pinned hashes", w.Name, in.Name)
			}
			for seed := range want {
				h := fnv.New64a()
				for _, p := range in.Generate(int64(seed)) {
					fmt.Fprintf(h, "%s\x00%#v\n", p.Key, p.Value)
				}
				if got := h.Sum64(); got != want[seed] {
					t.Errorf("%s seed %d: hash %#x, want %#x", in.Name, seed, got, want[seed])
				}
			}
		}
	}
}

// TestNumberedMatchesSprintf holds the generators' name builder to fmt's
// zero-padded form at every width the generators could use, across every
// digit boundary, and where the number is wider than the width.
func TestNumberedMatchesSprintf(t *testing.T) {
	ns := []int{0, 1, 7, 1<<30 - 1}
	for p := 10; p < 1<<30; p *= 10 {
		ns = append(ns, p-1, p, p+1)
	}
	for width := 0; width <= 10; width++ {
		for _, n := range ns {
			for _, prefix := range []string{"", "page", "."} {
				want := fmt.Sprintf("%s%0*d", prefix, width, n)
				if got := numbered(prefix, n, width); got != want {
					t.Errorf("numbered(%q, %d, %d) = %q, want %q", prefix, n, width, got, want)
				}
				if got := string(appendNumbered([]byte("x"), prefix, n, width)); got != "x"+want {
					t.Errorf("appendNumbered(x, %q, %d, %d) = %q, want %q", prefix, n, width, got, "x"+want)
				}
			}
		}
	}
}

// fieldInputs are the strings eachField is held to strings.Fields on: the
// table test's cases and the fuzzer's seed corpus.
var fieldInputs = []string{
	"", " ", "   \t\n", // empty and all space
	"a", "to be or not", " lead", "trail ", "  many   spaces  ",
	"a\tb\nc\vd\fe\rf", "\t\n\v\f\r",
	"a\u0085b", "a\u00a0b", "a\u2003b", "\u2003", " \u00a0 x \u0085", // Unicode spaces
	"café au lait", "naïve  words", "x café", "é", // non-ASCII words
	"a\xffb c", "\xff", "ok \xff\xfe ok", // invalid UTF-8
	"class3 term001 term002", // a NaiveBayes document
	"12.34.56.78 9.99",       // a WebJoin visit
}

// fieldsOf collects what eachField calls its function with.
func fieldsOf(s string) []string {
	var got []string
	eachField(s, func(f string) { got = append(got, f) })
	return got
}

// TestEachFieldMatchesFields holds the flows' field scanner to
// strings.Fields: the same fields in the same order, ASCII and Unicode
// separators, non-ASCII words and invalid bytes included.
func TestEachFieldMatchesFields(t *testing.T) {
	for _, s := range fieldInputs {
		if got, want := fieldsOf(s), strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("eachField(%q) = %q, strings.Fields = %q", s, got, want)
		}
	}
}

func FuzzEachField(f *testing.F) {
	for _, s := range fieldInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := fieldsOf(s), strings.Fields(s); !slices.Equal(got, want) {
			t.Errorf("eachField(%q) = %q, strings.Fields = %q", s, got, want)
		}
	})
}

// TestNBTermKeysMatchConcatenation holds nbTermKeys, which cuts a
// document's keys from one string, to the concatenation it replaced: one
// (class+"\x00"+term, 1) record per term after the first field, in order.
// The keys are compared only after the whole document is emitted, so a key
// overwritten by a later one would show.
func TestNBTermKeysMatchConcatenation(t *testing.T) {
	docs := []string{
		"class3",                       // a class and no term
		"",                             // nothing at all
		"class1\tterm001\tterm002",     // tab separators
		"class2 café term003  term003", // a non-ASCII term: eachField's strings.Fields fallback
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, p := range naiveBayesDocs(seed) {
			docs = append(docs, p.Value.(string))
		}
	}
	for _, doc := range docs {
		var got []rdd.Pair
		nbTermKeys(doc, func(p rdd.Pair) { got = append(got, p) })
		var want []rdd.Pair
		if f := strings.Fields(doc); len(f) > 0 {
			for _, w := range f[1:] {
				want = append(want, rdd.KV(f[0]+"\x00"+w, 1))
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("nbTermKeys(%q) = %q, want %q", doc, got, want)
		}
	}
}

// A document's keys cost one allocation, the string they are cut from,
// however many terms it has (a concatenation per term cost 120).
func TestNBTermKeysAllocateOncePerDocument(t *testing.T) {
	docs := naiveBayesDocs(1)
	emit := func(rdd.Pair) {}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range docs {
			nbTermKeys(p.Value.(string), emit)
		}
	})
	if perDoc := allocs / float64(len(docs)); perDoc > 1 {
		t.Errorf("%.2f allocations per document, want at most 1", perDoc)
	}
}

// TestExpectFloatMatch holds the float check to a key-by-key match: the
// same count of records is not enough when one key repeats in place of
// another.
func TestExpectFloatMatch(t *testing.T) {
	want := []rdd.Pair{rdd.KV("a", 1.0), rdd.KV("b", 2.0)}
	for _, tc := range []struct {
		name    string
		got     []rdd.Pair
		wantErr string // "" when the check must pass
	}{
		{"match", []rdd.Pair{rdd.KV("b", 2.0), rdd.KV("a", 1.0+1e-12)}, ""},
		{"duplicated key", []rdd.Pair{rdd.KV("a", 1.0), rdd.KV("a", 1.0)}, `"a"`},
		{"missing key", []rdd.Pair{rdd.KV("a", 1.0)}, "got 1 records, want 2"},
		{"extra key", []rdd.Pair{rdd.KV("a", 1.0), rdd.KV("b", 2.0), rdd.KV("c", 3.0)}, "got 3 records, want 2"},
		{"wrong value", []rdd.Pair{rdd.KV("a", 1.0), rdd.KV("b", 2.5)}, `"b"`},
	} {
		err := expectFloatMatch(tc.got, want)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted %v", tc.name, tc.got)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
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
	count := w.flow(ins).Deps[0] // wc.count's shuffle over wc.split
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
	sorted := w.flow(ins).Deps[0].Parent // terasort.strip ← terasort.sorted
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
	w := webJoin()
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
