// Package workloads re-implements the five HiBench workloads the paper
// evaluates (Table I): WordCount, Sort, TeraSort, PageRank, and NaiveBayes.
//
// Each workload is a declaration: deterministic, seeded input generators
// whose partitions are spread across every datacenter (the wide-area
// setting), the job dataflow expressed on the wanshuffle RDD API, and the
// check that compares the simulated cluster's output against an in-memory
// reference evaluation of the identical lineage. Make and MakeReference
// turn any declaration into a job and its expected output.
//
// Real record counts are scaled down for simulation speed; every partition
// carries the paper-scale modeled byte size from Table I, which is what all
// timing and traffic modeling uses. Generators are tuned so that the
// *ratios* that drive the paper's findings hold: WordCount's combined map
// output is a small fraction of its input, Sort and TeraSort shuffle their
// full input, TeraSort's pre-shuffle map bloats the data (Sec. V-B), and
// PageRank re-shuffles comparable volumes every iteration.
package workloads

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"wanshuffle/internal/core"
	"wanshuffle/internal/rdd"
)

// Byte-size units for Table I specifications.
const (
	mb = 1e6
	gb = 1e9
)

// parallelism is the reduce-side partition count of every shuffle: the
// paper sets "the parallelism of both map and reduce" to 8 (Sec. V-A).
const parallelism = 8

// Options configure one workload instance.
type Options struct {
	// Seed drives the input generator. Runs with equal seeds generate
	// identical data.
	Seed int64
	// MapParts is the map-side partition count. HiBench inputs are HDFS
	// files, so map tasks follow block count (3.2 GB ≈ 25 blocks of
	// 128 MB), not the parallelism setting. Defaults to 24 — one per
	// worker, matching the cluster's HDFS spread.
	MapParts int
	// Scale multiplies the modeled (paper-scale) data sizes; 1.0
	// reproduces Table I "large scale". Defaults to 1.0.
	Scale float64
}

func (o Options) withDefaults() Options {
	if o.MapParts <= 0 {
		o.MapParts = 24
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

// Instance is one constructed workload: the job's target RDD plus a
// validator over the collected output.
type Instance struct {
	// Target is the RDD the job collects.
	Target *rdd.RDD
	// Validate checks the engine's collected output.
	Validate func(got []rdd.Pair) error
}

// input is one dataset a workload reads.
type input struct {
	// Name of the leaf RDD.
	Name string
	// Generate draws the records for a seed, deterministically.
	Generate func(seed int64) []rdd.Pair
	// ModeledBytes is the dataset's Table I size, which all timing and
	// traffic modeling uses in place of the real records' size.
	ModeledBytes float64
}

// Workload declares one benchmark from the HiBench suite: what it reads,
// the dataflow over it, and how its output is checked.
type Workload struct {
	// Name as reported in the paper's figures.
	Name string
	// TableI is the specification line from the paper's Table I.
	TableI string
	// InFig8 reports whether the paper's Fig. 8 includes this workload.
	InFig8 bool
	// inputs are read in order; flow receives one leaf RDD per entry.
	inputs []input
	// flow builds the job on its inputs' graph and returns the target.
	flow func(ins []*rdd.RDD) *rdd.RDD
	// Check compares the engine's output with the reference evaluation.
	Check func(got, want []rdd.Pair) error
}

// Make builds the workload inside a context.
func (w *Workload) Make(ctx *core.Context, opts Options) *Instance {
	ins := w.place(ctx, opts)
	return &Instance{
		Target:   w.flow(ins),
		Validate: func(got []rdd.Pair) error { return w.Check(got, w.reference(ins)) },
	}
}

// MakeReference evaluates the workload's lineage in memory and returns the
// expected output records. The context only places the inputs; it never
// runs.
func (w *Workload) MakeReference(opts Options) []rdd.Pair {
	return w.reference(w.place(core.NewContext(core.Config{}), opts))
}

// place generates the inputs and spreads them over the cluster. This is
// the only place a record meets a partition.
func (w *Workload) place(ctx *core.Context, opts Options) []*rdd.RDD {
	opts = opts.withDefaults()
	ins := make([]*rdd.RDD, len(w.inputs))
	for i, in := range w.inputs {
		ins[i] = ctx.DistributeRecords(in.Name, in.Generate(opts.Seed), opts.MapParts, in.ModeledBytes*opts.Scale)
	}
	return ins
}

// reference builds the lineage a second time, over the partitions ins were
// placed in but on a graph of its own — rdd.EvalLocal prepares range
// partitioners, so it must not share a Graph with the engine — and
// evaluates it in memory.
func (w *Workload) reference(ins []*rdd.RDD) []rdd.Pair {
	g := rdd.NewGraph()
	local := make([]*rdd.RDD, len(ins))
	for i, in := range ins {
		local[i] = g.Input(in.Name, in.Input)
	}
	return rdd.CollectLocal(w.flow(local))
}

// All lists the paper's five workloads in Table I order.
func All() []*Workload {
	return []*Workload{WordCount(), Sort(), TeraSort(), PageRank(), naiveBayes()}
}

// ByName returns the workload with the given name.
func ByName(name string) (*Workload, error) {
	for _, w := range All() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// --- what the generators build records from ---

// appendNumbered appends prefix and n (n >= 0) zero-padded to width
// digits, as fmt's "%s%0*d" would, without fmt.
func appendNumbered(dst []byte, prefix string, n, width int) []byte {
	dst = append(dst, prefix...)
	digits := 1
	for v := n; v >= 10; v /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(n), 10)
}

// numbered is appendNumbered's string form.
func numbered(prefix string, n, width int) string {
	var buf [24]byte
	return string(appendNumbered(buf[:0], prefix, n, width))
}

// names is a generator's vocabulary: names[i] is numbered(prefix, i,
// width) for i in [0, n), built once per Generate call and indexed by the
// draw that picks a name.
func names(prefix string, n, width int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = numbered(prefix, i, width)
	}
	return out
}

// --- what the flows read records with ---

// eachField calls fn with each field of s, in order: exactly the fields
// strings.Fields returns, without building their slice. ASCII is scanned
// in place; from the first non-ASCII byte on, strings.Fields splits the
// rest (the field that byte is in included), so Unicode spaces and invalid
// UTF-8 split as it splits them.
func eachField(s string, fn func(string)) {
	start := -1 // where the current field began; -1 between fields
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			if start < 0 {
				start = i
			}
			for _, f := range strings.Fields(s[start:]) {
				fn(f)
			}
			return
		case c == ' ' || '\t' <= c && c <= '\r':
			if start >= 0 {
				fn(s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		fn(s[start:])
	}
}

// --- the checks a workload declares ---

// canonExact renders records as a canonical multiset string for exact
// comparison.
func canonExact(records []rdd.Pair) []string {
	out := make([]string, len(records))
	for i, p := range records {
		out[i] = fmt.Sprintf("%s\x00%v", p.Key, p.Value)
	}
	sort.Strings(out)
	return out
}

// expectExactMatch compares two record multisets exactly.
func expectExactMatch(got, want []rdd.Pair) error {
	g, w := canonExact(got), canonExact(want)
	if len(g) != len(w) {
		return fmt.Errorf("got %d records, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("record %d mismatch: got %q, want %q", i, g[i], w[i])
		}
	}
	return nil
}

// expectFloatMatch compares keyed float64 outputs within a relative
// tolerance of 1e-9 (floating-point sums depend on reduction order).
func expectFloatMatch(got, want []rdd.Pair) error {
	const tol = 1e-9
	w := map[string]float64{}
	for _, p := range want {
		w[p.Key] = p.Value.(float64)
	}
	if len(got) != len(w) {
		return fmt.Errorf("got %d records, want %d", len(got), len(w))
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		ref, ok := w[p.Key]
		if !ok {
			return fmt.Errorf("unexpected key %q", p.Key)
		}
		if seen[p.Key] {
			return fmt.Errorf("key %q appears twice", p.Key)
		}
		seen[p.Key] = true
		v := p.Value.(float64)
		if math.Abs(v-ref) > tol*(1+math.Abs(ref)) {
			return fmt.Errorf("key %q = %v, want %v", p.Key, v, ref)
		}
	}
	return nil
}

// expectSortedMatch verifies records are globally ordered by key and
// equal the reference as a multiset.
func expectSortedMatch(got, want []rdd.Pair) error {
	for i := 1; i < len(got); i++ {
		if got[i].Key < got[i-1].Key {
			return fmt.Errorf("output not sorted at %d: %q < %q", i, got[i].Key, got[i-1].Key)
		}
	}
	return expectExactMatch(got, want)
}
