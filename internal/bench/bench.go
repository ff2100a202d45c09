// Package bench drives the paper's experiments: it runs HiBench workloads
// under the three schemes over many seeds, aggregates the statistics the
// paper reports, and regenerates each figure (see DESIGN.md's experiment
// index). Both cmd/wanbench and the repository's testing.B benchmarks call
// into this package.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/stats"
	"wanshuffle/internal/workloads"
)

// Schemes evaluated throughout the paper, in presentation order.
func Schemes() []core.Scheme {
	return []core.Scheme{core.SchemeSpark, core.SchemeCentralized, core.SchemeAggShuffle}
}

// Options configure an experiment sweep.
type Options struct {
	// Runs is the number of iterations per (workload, scheme); the paper
	// uses 10. Defaults to 10.
	Runs int
	// BaseSeed seeds run i with BaseSeed+i. Defaults to 1.
	BaseSeed int64
	// Scale multiplies Table I modeled sizes. Defaults to 1.0 (paper
	// scale).
	Scale float64
	// Jitter is the WAN bandwidth fluctuation amplitude. Defaults to
	// 0.25, matching the paper's observation that inter-region capacity
	// varies widely over time.
	Jitter float64
	// Validate re-checks every run's output against the in-memory
	// reference (slower; on by default at small scale in tests).
	Validate bool
	// Trace records per-task spans in every run, so reports carry
	// per-stage task-duration summaries.
	Trace bool
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		o.Runs = 10
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	// Negative passes through: simnet/core treat it as jitter disabled.
	if o.Jitter == 0 {
		o.Jitter = 0.25
	}
	return o
}

// variant is one row of an experiment: a workload under a scheme, with
// the knobs that row turns away from the paper's configuration. Every
// figure, table and ablation is a list of these.
type variant struct {
	// study and label name the row where (workload, scheme) does not.
	study, label string
	workload     *workloads.Workload
	scheme       core.Scheme
	// engine and input adjust the engine config and the workload options
	// of every run; nil leaves them at the paper's.
	engine func(*exec.Config)
	input  func(*workloads.Options)
	// tenants is how many instances of the workload start at the same
	// instant on the one cluster; 0 means the paper's 1.
	tenants int
	// cell, when set, replaces the workload run (the Fig. 1
	// micro-scenario).
	cell func(v variant, seed int64) (outcome, error)
}

// outcome is what one (variant, seed) cell contributes to its row.
type outcome struct {
	jct, crossMB float64
	// stages are the run's stage spans in seconds, by stage index.
	stages []float64
	// rep is the run behind the numbers. It holds its whole simulated
	// cluster, so runAll drops it; nil after a custom cell.
	rep *core.Report
	err error
}

func (v variant) String() string {
	if v.label != "" {
		return v.study + "/" + v.label
	}
	return fmt.Sprintf("%s/%v", v.workload.Name, v.scheme)
}

// run executes one cell, naming it in any error.
func (v variant) run(seed int64, opts Options) (o outcome) {
	var err error
	if v.cell != nil {
		o, err = v.cell(v, seed)
	} else {
		o, err = v.runWorkload(seed, opts)
	}
	if err != nil {
		o.err = fmt.Errorf("bench: %v seed %d: %w", v, seed, err)
	}
	return o
}

// runWorkload is the standard cell: the variant's workload on a fresh
// simulated cluster, validated when opts ask for it. With several tenants
// the cell's JCT is the slowest job's; each report's traffic is the
// cluster-wide delta over its job's lifetime, so the last job's is the
// cell's.
func (v variant) runWorkload(seed int64, opts Options) (outcome, error) {
	cfg := core.Config{
		Seed:   seed,
		Scheme: v.scheme,
		Exec: exec.Config{
			Net:   simnet.Config{JitterAmplitude: opts.Jitter},
			Trace: opts.Trace,
		},
	}
	if v.engine != nil {
		v.engine(&cfg.Exec)
	}
	ctx := core.NewContext(cfg)
	insts := make([]*workloads.Instance, max(v.tenants, 1))
	targets := make([]*rdd.RDD, len(insts))
	for j := range insts {
		in := workloads.Options{Seed: seed + int64(100*j), Scale: opts.Scale}
		if v.input != nil {
			v.input(&in)
		}
		insts[j] = v.workload.Make(ctx, in)
		targets[j] = insts[j].Target
	}
	// HiBench jobs write their output to HDFS rather than collecting it
	// at the driver; RunConcurrently saves.
	reports, err := ctx.RunConcurrently(targets)
	if err != nil {
		return outcome{}, err
	}
	last := reports[len(reports)-1]
	o := outcome{crossMB: last.CrossDCBytes / 1e6, rep: last}
	for _, st := range last.Stages {
		o.stages = append(o.stages, st.End-st.Start)
	}
	for j, rep := range reports {
		o.jct = math.Max(o.jct, rep.JCT)
		if opts.Validate {
			if err := insts[j].Validate(rep.Records); err != nil {
				return outcome{}, fmt.Errorf("wrong results: %w", err)
			}
		}
	}
	return o, nil
}

// runAll is the one seeded runner: it executes every variant for
// opts.Runs seeds, each cell on its own simulated cluster, and returns the
// outcomes as [variant][run]. Cells run in parallel on one worker per CPU;
// a cell's result depends on its variant and seed alone, so neither the
// pool size nor the completion order shows in the result, and the error
// returned is the first in table order.
func runAll(variants []variant, opts Options) ([][]outcome, error) {
	opts = opts.withDefaults()
	type cellID struct{ v, run int }
	cells := make(chan cellID)
	out := make([][]outcome, len(variants))
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				o := variants[c.v].run(opts.BaseSeed+int64(c.run), opts)
				o.rep = nil
				out[c.v][c.run] = o
			}
		}()
	}
	for v := range variants {
		out[v] = make([]outcome, opts.Runs)
		for run := 0; run < opts.Runs; run++ {
			cells <- cellID{v, run}
		}
	}
	close(cells)
	wg.Wait()
	for _, runs := range out {
		for _, o := range runs {
			if o.err != nil {
				return nil, o.err
			}
		}
	}
	return out, nil
}

// RunOne executes a single workload run and returns its report.
func RunOne(w *workloads.Workload, scheme core.Scheme, seed int64, opts Options) (*core.Report, error) {
	o := variant{workload: w, scheme: scheme}.run(seed, opts.withDefaults())
	return o.rep, o.err
}

// Series is one variant's sample set across runs: the one row type every
// figure and ablation is rendered from.
type Series struct {
	// Workload is empty for a row that ran a custom cell.
	Workload string
	Scheme   core.Scheme
	// JCT aggregates job completion times in seconds (Fig. 7).
	JCT stats.Summary
	// CrossDCMB aggregates cross-datacenter traffic in MB (Fig. 8).
	CrossDCMB stats.Summary
	// Stages aggregates per-stage spans in seconds (Fig. 9), by stage
	// index.
	Stages []stats.Summary
}

// summarize runs the variants and reduces each one's outcomes to a Series,
// in variant order.
func summarize(variants []variant, opts Options) ([]Series, error) {
	outs, err := runAll(variants, opts)
	if err != nil {
		return nil, err
	}
	series := make([]Series, len(variants))
	for vi, v := range variants {
		var jct, cross []float64
		var stages [][]float64
		s := Series{Scheme: v.scheme}
		if v.workload != nil {
			s.Workload = v.workload.Name
		}
		for _, o := range outs[vi] {
			jct = append(jct, o.jct)
			cross = append(cross, o.crossMB)
			for i, span := range o.stages {
				if i >= len(stages) {
					stages = append(stages, nil)
				}
				stages[i] = append(stages[i], span)
			}
		}
		s.JCT, s.CrossDCMB = stats.Summarize(jct), stats.Summarize(cross)
		for _, spans := range stages {
			s.Stages = append(s.Stages, stats.Summarize(spans))
		}
		series[vi] = s
	}
	return series, nil
}

// grid lists every workload under every scheme, workload-major.
func grid(ws []*workloads.Workload, schemes []core.Scheme) []variant {
	var vs []variant
	for _, w := range ws {
		for _, scheme := range schemes {
			vs = append(vs, variant{workload: w, scheme: scheme})
		}
	}
	return vs
}

// Sweep runs every given workload under every scheme for opts.Runs seeds
// and aggregates the results, workload-major.
func Sweep(ws []*workloads.Workload, schemes []core.Scheme, opts Options) ([]Series, error) {
	return summarize(grid(ws, schemes), opts)
}

// Reports runs every workload under every scheme once (seed
// opts.BaseSeed, tracing on) and returns each run's canonical JSON run
// report (obs.SchemaVersion), in workload-major order — the
// machine-readable companion to the figure experiments.
func Reports(ws []*workloads.Workload, schemes []core.Scheme, opts Options) ([]*obs.Report, error) {
	opts = opts.withDefaults()
	opts.Trace = true
	var reports []*obs.Report
	for _, v := range grid(ws, schemes) {
		o := v.run(opts.BaseSeed, opts)
		if o.err != nil {
			return nil, o.err
		}
		reports = append(reports, o.rep.RunReport(v.workload.Name))
	}
	return reports, nil
}

// Fig7 regenerates the paper's sweep: all five workloads under the three
// schemes. Its series carry the job completion times of Fig. 7, the
// cross-datacenter traffic of Fig. 8 and the stage spans of Fig. 9.
func Fig7(opts Options) ([]Series, error) {
	return Sweep(workloads.All(), Schemes(), opts)
}

// Fig8 regenerates the cross-datacenter traffic comparison for the four
// workloads the paper's Fig. 8 covers (Sort, TeraSort, PageRank,
// NaiveBayes).
func Fig8(opts Options) ([]Series, error) {
	var ws []*workloads.Workload
	for _, w := range workloads.All() {
		if w.InFig8 {
			ws = append(ws, w)
		}
	}
	return Sweep(ws, Schemes(), opts)
}

// Find returns the series for (workload, scheme).
func Find(series []Series, workload string, scheme core.Scheme) (Series, error) {
	for _, s := range series {
		if s.Workload == workload && s.Scheme == scheme {
			return s, nil
		}
	}
	return Series{}, fmt.Errorf("bench: no series for %s/%v", workload, scheme)
}

// Reduction returns the relative JCT reduction of AggShuffle vs the Spark
// baseline for a workload, e.g. 0.73 for the paper's headline 73%.
func Reduction(series []Series, workload string) (float64, error) {
	spark, err := Find(series, workload, core.SchemeSpark)
	if err != nil {
		return 0, err
	}
	agg, err := Find(series, workload, core.SchemeAggShuffle)
	if err != nil {
		return 0, err
	}
	if spark.JCT.TrimmedMean <= 0 {
		return 0, fmt.Errorf("bench: degenerate baseline JCT")
	}
	return 1 - agg.JCT.TrimmedMean/spark.JCT.TrimmedMean, nil
}
